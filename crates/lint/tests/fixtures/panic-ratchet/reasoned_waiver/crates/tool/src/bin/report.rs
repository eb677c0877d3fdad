//! Negative: a waiver with a reason covers its own line (trailing) or
//! the line below it (standalone).

fn main() {
    // vf-lint: allow(panic-ratchet) — the input is generated by the build step above
    let text = std::fs::read_to_string("input.json").expect("input present");
    let n: u32 = text.trim().parse().unwrap(); // vf-lint: allow(panic-ratchet) — checked upstream
    print!("{n}");
}
