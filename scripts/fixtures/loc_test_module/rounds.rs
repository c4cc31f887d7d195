// Input for scripts/loc.sh, never built: a parent module whose child
// `reference` is declared under `#[cfg(test)]` and lives in its own
// file. CI requires the script to count exactly 12 lines of this tree:
// the 10 of this file outside its `#[cfg(test)]` item and the 2 of
// rounds/markdup.rs. The 7 lines of rounds/reference.rs and of its child
// rounds/reference/oracle.rs are test code.

mod markdup;
#[cfg(test)]
mod reference;

pub use markdup::mark;
