//! Negative: `#[cfg(test)]` modules and `#[test]` functions may panic;
//! library code returns errors.

pub fn parse(s: &str) -> Result<u32, std::num::ParseIntError> {
    s.parse()
}

#[test]
fn parses_directly() {
    assert_eq!(parse("7").unwrap(), 7);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn helper(s: &str) -> u32 {
        parse(s).expect("test input is a number")
    }

    #[test]
    fn parses() {
        assert_eq!(helper("3"), 3);
        if helper("4") != 4 {
            panic!("unreachable in practice");
        }
    }
}
