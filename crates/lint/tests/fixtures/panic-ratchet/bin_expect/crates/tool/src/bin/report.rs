//! Positive: a binary is not test code. Its `expect` is an error even
//! though no baseline file exists anywhere in the workspace.

fn main() {
    let text = std::fs::read_to_string("input.json").expect("input present");
    print!("{text}");
}
