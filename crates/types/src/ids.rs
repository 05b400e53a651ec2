//! Strongly-typed identifiers for PCN entities.
//!
//! Newtypes keep node indices, channel indices, transaction ids and
//! transaction-unit ids from being confused with each other (C-NEWTYPE).

use core::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name($inner);

        impl $name {
            /// Creates an identifier from its raw index value.
            pub const fn new(raw: $inner) -> Self {
                Self(raw)
            }

            /// Returns the raw index value.
            pub const fn raw(self) -> $inner {
                self.0
            }

            /// Returns the identifier as a `usize` suitable for indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Creates an identifier from a `usize` index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in the backing integer type.
            pub fn from_index(index: usize) -> Self {
                Self(<$inner>::try_from(index).expect("id index out of range"))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(raw: $inner) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for $inner {
            fn from(id: $name) -> $inner {
                id.0
            }
        }
    };
}

id_type!(
    /// Index of a node (client or smooth node) in a PCN graph.
    NodeId,
    u32,
    "n"
);
id_type!(
    /// Index of an undirected payment channel in a PCN graph.
    ChannelId,
    u32,
    "ch"
);
id_type!(
    /// Identifier of a payment (transaction) `tid` in the workflow of §III-A.
    TxId,
    u64,
    "tx"
);
id_type!(
    /// Identifier of a transaction unit (TU) `tuid`; payments are split into
    /// TUs by the routing protocol (§IV-D).
    TuId,
    u64,
    "tu"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn roundtrip_raw() {
        let id = NodeId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.index(), 42);
        assert_eq!(NodeId::from_index(42), id);
        assert_eq!(u32::from(id), 42);
        assert_eq!(NodeId::from(42u32), id);
    }

    #[test]
    fn display_and_debug_prefixes() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
        assert_eq!(format!("{:?}", ChannelId::new(7)), "ch7");
        assert_eq!(TxId::new(1).to_string(), "tx1");
        assert_eq!(TuId::new(2).to_string(), "tu2");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(TxId::new(10) > TxId::new(9));
    }

    #[test]
    fn usable_as_hash_keys() {
        let mut set = HashSet::new();
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(2));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId::new(0));
        assert_eq!(TuId::default().raw(), 0);
    }

    #[test]
    #[should_panic(expected = "id index out of range")]
    fn from_index_overflow_panics() {
        let _ = NodeId::from_index(usize::try_from(u64::from(u32::MAX) + 1).unwrap());
    }
}
