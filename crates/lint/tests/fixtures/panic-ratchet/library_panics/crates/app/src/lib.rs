//! Positive: every panic-family site in library code is one error,
//! `Option::unwrap`, a path-called `expect` and the four macros alike.

pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

pub fn parse(s: &str) -> u32 {
    Result::expect(s.parse::<u32>(), "a number")
}

pub fn pick(k: u8) -> u32 {
    match k {
        0 => panic!("zero"),
        1 => unreachable!(),
        2 => todo!(),
        _ => unimplemented!(),
    }
}

/// Lookalikes are not sites: `unwrap_or` and the words inside a string
/// literal.
pub fn fallback(v: Option<u32>) -> u32 {
    let _ = "unwrap() expect( panic!";
    v.unwrap_or(0)
}
