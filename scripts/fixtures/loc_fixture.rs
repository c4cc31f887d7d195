// Input for scripts/loc.sh, never built. CI requires the script to count
// exactly 32 lines of this file: every line outside a `#[cfg(test)]` item,
// blank and comment lines included. The test items are a one-line `use`,
// a hook struct with its doc comment and a field ahead of production code,
// an indented fn and statement inside impls, and the trailing `mod tests`.

use std::fmt;
#[cfg(test)] use std::collections::HashMap;

/// Interleaving points for tests.
#[cfg(test)]
#[derive(Default)]
struct Hooks {
    before_park: Option<fn()>,
    note: &'static str, // a brace in a comment: }
}

pub struct Service {
    pub slots: usize,
    #[cfg(test)]
    hooks: Hooks,
}

impl Service {
    pub fn new(slots: usize) -> Service {
        Service {
            slots,
            #[cfg(test)]
            hooks: Hooks::default(),
        }
    }

    /// Braces in strings and char literals.
    #[cfg(test)]
    fn hook_text(&self) -> String {
        format!("{{ '}}' {} {}", '{', self.hooks.note)
    }

    pub fn slots(&self) -> usize {
        self.slots
    }
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        #[cfg(test)]
        let _ = HashMap::<u8, u8>::new();
        write!(f, "Service({})", self.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        assert_eq!(Service::new(2).slots(), 2);
        assert!(Service::new(1).hook_text().starts_with("{ '}' {"));
    }
}
