//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! serde shim. The offline build has no `syn`/`quote`, so this walks the raw
//! `proc_macro::TokenStream` with a small cursor, supports exactly the shapes
//! this workspace uses (non-generic structs with named fields, tuple/newtype
//! structs, and enums with unit/newtype/tuple/struct variants, plus
//! `#[serde(default)]` and `#[serde(skip)]` on named fields), and generates
//! code as strings.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Cursor {
    toks: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(ts: TokenStream) -> Self {
        Cursor {
            toks: ts.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<TokenTree> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Skip attributes; returns the `#[serde(default)]` / `#[serde(skip)]`
    /// options among them.
    fn skip_attrs(&mut self) -> SerdeAttrs {
        let mut attrs = SerdeAttrs::default();
        loop {
            match self.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    self.bump();
                    match self.bump() {
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                            for word in serde_attr_words(g.stream()) {
                                attrs.default |= word == "default";
                                attrs.skip |= word == "skip";
                            }
                        }
                        other => panic!("expected [...] after # in attribute, got {other:?}"),
                    }
                }
                _ => return attrs,
            }
        }
    }

    fn skip_vis(&mut self) {
        if let Some(TokenTree::Ident(id)) = self.peek() {
            if id.to_string() == "pub" {
                self.bump();
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.bump();
                    }
                }
            }
        }
    }

    fn expect_ident(&mut self) -> String {
        match self.bump() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("expected identifier, got {other:?}"),
        }
    }

    fn eat_punct(&mut self, ch: char) -> bool {
        if let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() == ch {
                self.bump();
                return true;
            }
        }
        false
    }

    /// Consume tokens of a type expression until a top-level `,` (angle
    /// brackets tracked) or end of stream. Returns the joined type text.
    fn take_type(&mut self) -> String {
        let mut depth: i32 = 0;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => break,
                Some(TokenTree::Punct(p)) => {
                    let c = p.as_char();
                    if c == ',' && depth == 0 {
                        break;
                    }
                    if c == '<' {
                        depth += 1;
                    } else if c == '>' {
                        depth -= 1;
                    }
                    out.push(c);
                    self.bump();
                }
                Some(t) => {
                    out.push_str(&t.to_string());
                    self.bump();
                }
            }
        }
        out
    }
}

/// The serde options of a field.
#[derive(Default)]
struct SerdeAttrs {
    /// `#[serde(default)]`: a missing field deserializes as its default.
    default: bool,
    /// `#[serde(skip)]`: never serialized, always deserialized as its
    /// default.
    skip: bool,
}

/// The identifiers inside a `serde(...)` attribute; none for any other.
fn serde_attr_words(stream: TokenStream) -> Vec<String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    match (toks.first(), toks.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(g)))
            if id.to_string() == "serde" && g.delimiter() == Delimiter::Parenthesis =>
        {
            g.stream()
                .into_iter()
                .filter_map(|t| match t {
                    TokenTree::Ident(id) => Some(id.to_string()),
                    _ => None,
                })
                .collect()
        }
        _ => Vec::new(),
    }
}

struct Field {
    name: String,
    has_default: bool,
    skip: bool,
    is_option: bool,
}

enum Fields {
    Unit,
    Named(Vec<Field>),
    Tuple(usize),
}

enum Item {
    Struct(String, Fields),
    Enum(String, Vec<(String, Fields)>),
}

fn type_is_option(ty: &str) -> bool {
    ty.starts_with("Option<")
        || ty.starts_with("std::option::Option<")
        || ty.starts_with("core::option::Option<")
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut c = Cursor::new(stream);
    let mut fields = Vec::new();
    while !c.at_end() {
        let attrs = c.skip_attrs();
        if c.at_end() {
            break;
        }
        c.skip_vis();
        let name = c.expect_ident();
        assert!(c.eat_punct(':'), "expected `:` after field `{name}`");
        let ty = c.take_type();
        c.eat_punct(',');
        fields.push(Field {
            name,
            has_default: attrs.default,
            skip: attrs.skip,
            is_option: type_is_option(&ty),
        });
    }
    fields
}

fn parse_tuple_arity(stream: TokenStream) -> usize {
    let mut c = Cursor::new(stream);
    let mut arity = 0;
    while !c.at_end() {
        c.skip_attrs();
        if c.at_end() {
            break;
        }
        c.skip_vis();
        let ty = c.take_type();
        if !ty.is_empty() {
            arity += 1;
        }
        c.eat_punct(',');
    }
    arity
}

fn parse_item(input: TokenStream) -> Item {
    let mut c = Cursor::new(input);
    c.skip_attrs();
    c.skip_vis();
    let kind = c.expect_ident();
    let name = c.expect_ident();
    if let Some(TokenTree::Punct(p)) = c.peek() {
        if p.as_char() == '<' {
            panic!("serde shim derive does not support generic type `{name}`");
        }
    }
    match kind.as_str() {
        "struct" => match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                Item::Struct(name, Fields::Named(fields))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = parse_tuple_arity(g.stream());
                Item::Struct(name, Fields::Tuple(arity))
            }
            _ => Item::Struct(name, Fields::Unit),
        },
        "enum" => {
            let body = match c.bump() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("expected enum body, got {other:?}"),
            };
            let mut vc = Cursor::new(body);
            let mut variants = Vec::new();
            while !vc.at_end() {
                vc.skip_attrs();
                if vc.at_end() {
                    break;
                }
                let vname = vc.expect_ident();
                let fields = match vc.peek() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        let f = parse_named_fields(g.stream());
                        vc.bump();
                        Fields::Named(f)
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        let a = parse_tuple_arity(g.stream());
                        vc.bump();
                        Fields::Tuple(a)
                    }
                    _ => Fields::Unit,
                };
                // Discriminant initializers (`= expr`) are not supported with
                // data-carrying serde derives and don't occur here.
                vc.eat_punct(',');
                variants.push((vname, fields));
            }
            Item::Enum(name, variants)
        }
        other => panic!("cannot derive serde traits for `{other}`"),
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let mut s = String::new();
    match item {
        Item::Struct(name, fields) => {
            s.push_str(&format!(
                "impl ::serde::Serialize for {name} {{\n    fn to_value(&self) -> ::serde::Value {{\n"
            ));
            match fields {
                Fields::Unit => s.push_str("        ::serde::Value::Null\n"),
                Fields::Tuple(1) => {
                    s.push_str("        ::serde::Serialize::to_value(&self.0)\n");
                }
                Fields::Tuple(n) => {
                    s.push_str("        ::serde::Value::Array(vec![");
                    for i in 0..*n {
                        s.push_str(&format!("::serde::Serialize::to_value(&self.{i}), "));
                    }
                    s.push_str("])\n");
                }
                Fields::Named(fs) => {
                    s.push_str("        let mut __vf_map = ::serde::Map::new();\n");
                    for f in fs.iter().filter(|f| !f.skip) {
                        s.push_str(&format!(
                            "        __vf_map.insert(::std::string::String::from(\"{0}\"), ::serde::Serialize::to_value(&self.{0}));\n",
                            f.name
                        ));
                    }
                    s.push_str("        ::serde::Value::Object(__vf_map)\n");
                }
            }
            s.push_str("    }\n}\n");
        }
        Item::Enum(name, variants) => {
            s.push_str(&format!(
                "impl ::serde::Serialize for {name} {{\n    fn to_value(&self) -> ::serde::Value {{\n        match self {{\n"
            ));
            for (vname, fields) in variants {
                match fields {
                    Fields::Unit => s.push_str(&format!(
                        "            {name}::{vname} => ::serde::Value::String(::std::string::String::from(\"{vname}\")),\n"
                    )),
                    Fields::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|i| format!("__vf_x{i}")).collect();
                        let inner = if *n == 1 {
                            format!("::serde::Serialize::to_value({})", binders[0])
                        } else {
                            format!(
                                "::serde::Value::Array(vec![{}])",
                                binders
                                    .iter()
                                    .map(|b| format!("::serde::Serialize::to_value({b})"))
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            )
                        };
                        s.push_str(&format!(
                            "            {name}::{vname}({}) => {{\n                let mut __vf_outer = ::serde::Map::new();\n                __vf_outer.insert(::std::string::String::from(\"{vname}\"), {inner});\n                ::serde::Value::Object(__vf_outer)\n            }}\n",
                            binders.join(", ")
                        ));
                    }
                    Fields::Named(fs) => {
                        let binders: Vec<String> = fs
                            .iter()
                            .enumerate()
                            .map(|(i, f)| format!("{}: __vf_f{i}", f.name))
                            .collect();
                        s.push_str(&format!(
                            "            {name}::{vname} {{ {} }} => {{\n                let mut __vf_inner = ::serde::Map::new();\n",
                            binders.join(", ")
                        ));
                        for (i, f) in fs.iter().enumerate().filter(|(_, f)| !f.skip) {
                            s.push_str(&format!(
                                "                __vf_inner.insert(::std::string::String::from(\"{}\"), ::serde::Serialize::to_value(__vf_f{i}));\n",
                                f.name
                            ));
                        }
                        s.push_str(&format!(
                            "                let mut __vf_outer = ::serde::Map::new();\n                __vf_outer.insert(::std::string::String::from(\"{vname}\"), ::serde::Value::Object(__vf_inner));\n                ::serde::Value::Object(__vf_outer)\n            }}\n"
                        ));
                    }
                }
            }
            s.push_str("        }\n    }\n}\n");
        }
    }
    s
}

fn gen_named_field_reads(ty_name: &str, fs: &[Field], obj: &str) -> String {
    let mut s = String::new();
    for f in fs {
        if f.skip {
            s.push_str(&format!(
                "            {}: ::std::default::Default::default(),\n",
                f.name
            ));
            continue;
        }
        let missing = if f.has_default || f.is_option {
            "::std::default::Default::default()".to_string()
        } else {
            format!(
                "return ::std::result::Result::Err(::serde::Error::new(\"missing field `{}` in {ty_name}\"))",
                f.name
            )
        };
        s.push_str(&format!(
            "            {0}: match {obj}.get(\"{0}\") {{\n                ::std::option::Option::Some(__vf_x) => ::serde::Deserialize::from_value(__vf_x)?,\n                ::std::option::Option::None => {missing},\n            }},\n",
            f.name
        ));
    }
    s
}

fn gen_deserialize(item: &Item) -> String {
    let mut s = String::new();
    match item {
        Item::Struct(name, fields) => {
            s.push_str(&format!(
                "impl ::serde::Deserialize for {name} {{\n    fn from_value(__vf_v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n"
            ));
            match fields {
                Fields::Unit => s.push_str(&format!(
                    "        match __vf_v {{ ::serde::Value::Null => ::std::result::Result::Ok({name}), _ => ::std::result::Result::Err(::serde::Error::new(\"expected null for unit struct {name}\")) }}\n"
                )),
                Fields::Tuple(1) => s.push_str(&format!(
                    "        ::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__vf_v)?))\n"
                )),
                Fields::Tuple(n) => {
                    s.push_str(&format!(
                        "        let __vf_items = __vf_v.as_array().ok_or_else(|| ::serde::Error::new(\"expected array for tuple struct {name}\"))?;\n        if __vf_items.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::new(\"wrong arity for tuple struct {name}\")); }}\n        ::std::result::Result::Ok({name}(",
                    ));
                    for i in 0..*n {
                        s.push_str(&format!(
                            "::serde::Deserialize::from_value(&__vf_items[{i}])?, "
                        ));
                    }
                    s.push_str("))\n");
                }
                Fields::Named(fs) => {
                    s.push_str(&format!(
                        "        let __vf_obj = __vf_v.as_object().ok_or_else(|| ::serde::Error::new(\"expected object for struct {name}\"))?;\n        ::std::result::Result::Ok({name} {{\n"
                    ));
                    s.push_str(&gen_named_field_reads(name, fs, "__vf_obj"));
                    s.push_str("        })\n");
                }
            }
            s.push_str("    }\n}\n");
        }
        Item::Enum(name, variants) => {
            s.push_str(&format!(
                "impl ::serde::Deserialize for {name} {{\n    fn from_value(__vf_v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n        match __vf_v {{\n"
            ));
            // Unit variants: plain string form.
            s.push_str("            ::serde::Value::String(__vf_s) => match __vf_s.as_str() {\n");
            for (vname, fields) in variants {
                if matches!(fields, Fields::Unit) {
                    s.push_str(&format!(
                        "                \"{vname}\" => ::std::result::Result::Ok({name}::{vname}),\n"
                    ));
                }
            }
            s.push_str(&format!(
                "                __vf_other => ::std::result::Result::Err(::serde::Error::new(format!(\"unknown variant `{{__vf_other}}` for enum {name}\"))),\n            }},\n"
            ));
            // Data variants: externally tagged single-key object.
            s.push_str(
                "            ::serde::Value::Object(__vf_m) if __vf_m.len() == 1 => {\n                let (__vf_tag, __vf_inner) = __vf_m.iter().next().expect(\"len checked\");\n                match __vf_tag.as_str() {\n"
            );
            for (vname, fields) in variants {
                match fields {
                    Fields::Unit => s.push_str(&format!(
                        "                    \"{vname}\" => ::std::result::Result::Ok({name}::{vname}),\n"
                    )),
                    Fields::Tuple(1) => s.push_str(&format!(
                        "                    \"{vname}\" => ::std::result::Result::Ok({name}::{vname}(::serde::Deserialize::from_value(__vf_inner)?)),\n"
                    )),
                    Fields::Tuple(n) => {
                        s.push_str(&format!(
                            "                    \"{vname}\" => {{\n                        let __vf_items = __vf_inner.as_array().ok_or_else(|| ::serde::Error::new(\"expected array for variant {name}::{vname}\"))?;\n                        if __vf_items.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::new(\"wrong arity for variant {name}::{vname}\")); }}\n                        ::std::result::Result::Ok({name}::{vname}(",
                        ));
                        for i in 0..*n {
                            s.push_str(&format!(
                                "::serde::Deserialize::from_value(&__vf_items[{i}])?, "
                            ));
                        }
                        s.push_str("))\n                    }\n");
                    }
                    Fields::Named(fs) => {
                        s.push_str(&format!(
                            "                    \"{vname}\" => {{\n                        let __vf_obj = __vf_inner.as_object().ok_or_else(|| ::serde::Error::new(\"expected object for variant {name}::{vname}\"))?;\n                        ::std::result::Result::Ok({name}::{vname} {{\n"
                        ));
                        s.push_str(&gen_named_field_reads(
                            &format!("{name}::{vname}"),
                            fs,
                            "__vf_obj",
                        ));
                        s.push_str("                        })\n                    }\n");
                    }
                }
            }
            s.push_str(&format!(
                "                    __vf_other => ::std::result::Result::Err(::serde::Error::new(format!(\"unknown variant `{{__vf_other}}` for enum {name}\"))),\n                }}\n            }}\n            _ => ::std::result::Result::Err(::serde::Error::new(\"expected string or single-key object for enum {name}\")),\n        }}\n    }}\n}}\n"
            ));
        }
    }
    s
}

/// Derive `serde::Serialize` (shim).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde shim generated invalid Serialize impl")
}

/// Derive `serde::Deserialize` (shim).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde shim generated invalid Deserialize impl")
}
