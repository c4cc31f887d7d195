/// A production module next to the test one: every line counts.
pub fn mark() {}
