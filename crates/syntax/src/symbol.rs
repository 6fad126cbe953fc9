//! Global string interner for atoms and functor names.
//!
//! Prolog programs mention the same functor names constantly (`mother`,
//! `','`, `:-`, …). Interning turns every name into a copyable `u32` so
//! term comparison, database lookup, and call-graph keys are integer
//! operations. Interned strings are leaked once per distinct name, which is
//! bounded by the number of distinct atoms in the session and lets
//! [`Symbol::as_str`] hand out `&'static str` that outlives the interner
//! lock. Every lookup, `as_str` included, still takes that lock: hot
//! loops should compare symbols, not their text.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned atom or functor name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            names: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns `name`, returning the unique symbol for it.
    pub fn intern(name: &str) -> Symbol {
        {
            let guard = interner().read().expect("interner poisoned");
            if let Some(&id) = guard.map.get(name) {
                return Symbol(id);
            }
        }
        let mut guard = interner().write().expect("interner poisoned");
        if let Some(&id) = guard.map.get(name) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = guard.names.len() as u32;
        guard.names.push(leaked);
        guard.map.insert(leaked, id);
        Symbol(id)
    }

    /// The interned text of this symbol. Takes the interner's `RwLock`
    /// for reading on every call; the returned text itself is never
    /// freed, so it outlives the guard.
    pub fn as_str(self) -> &'static str {
        let guard = interner().read().expect("interner poisoned");
        guard.names[self.0 as usize]
    }

    /// Raw id, usable as a dense map key.
    pub fn id(self) -> u32 {
        self.0
    }
}

/// Shorthand for [`Symbol::intern`].
pub fn sym(name: &str) -> Symbol {
    Symbol::intern(name)
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = sym("mother");
        let b = sym("mother");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "mother");
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        assert_ne!(sym("wife"), sym("mother"));
    }

    #[test]
    fn empty_and_unicode_names() {
        assert_eq!(sym("").as_str(), "");
        assert_eq!(sym("λ").as_str(), "λ");
    }

    #[test]
    fn display_matches_text() {
        assert_eq!(format!("{}", sym("aunt")), "aunt");
        assert_eq!(format!("{:?}", sym("aunt")), "aunt");
    }
}
