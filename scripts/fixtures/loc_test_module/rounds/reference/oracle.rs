//! A child of a test-only module is test code too.
pub fn oracle() {}
