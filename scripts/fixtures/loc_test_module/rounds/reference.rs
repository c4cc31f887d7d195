//! Test-only: its parent declares it `#[cfg(test)] mod reference;`.

mod oracle;

pub fn mark() {}
