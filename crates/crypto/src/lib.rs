//! Simulated cryptography substrate for the Splicer workflow (§III-A).
//!
//! The paper's payment workflow relies on a key-management group (KMG)
//! running distributed key generation \[14\] to issue per-transaction key
//! pairs, and on public-key envelopes hiding payment demands from
//! intermediaries. None of that cryptography is the paper's contribution
//! — the system only needs the *interfaces* and their costs — so this
//! crate provides working but **deliberately toy** constructions:
//!
//! * [`sha256`] — a real, from-scratch SHA-256 (verified against NIST
//!   vectors); the envelopes' keystream and authentication tag.
//! * [`field`] — arithmetic in GF(p) for the Mersenne prime p = 2⁶¹ − 1.
//! * [`shamir`] — Shamir secret sharing over that field.
//! * [`dkg`] — a simulated Joint-Feldman-style DKG for the KMG.
//! * [`keys`]/[`envelope`] — ElGamal-style key pairs and hybrid envelopes.
//!
//! # Security
//!
//! **THIS CRATE IS NOT SECURE AND MUST NEVER PROTECT REAL FUNDS.** The
//! 61-bit field makes discrete logs trivially breakable; the DKG runs all
//! "participants" in one process. The constructions exist so the simulated
//! workflow exercises the same code paths (encrypt → route → decrypt →
//! acknowledge) with honest data dependencies and realistic message sizes.
//!
//! # Examples
//!
//! ```
//! use pcn_crypto::{dkg::KeyManagementGroup, envelope::Envelope};
//!
//! let mut kmg = KeyManagementGroup::new(4, 3, 99);
//! let pair = kmg.issue_keypair();
//! let sealed = Envelope::seal(&pair.public, b"pay 5 tokens to n7", kmg.entropy());
//! let opened = sealed.open(&pair.secret).unwrap();
//! assert_eq!(opened, b"pay 5 tokens to n7");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dkg;
pub mod envelope;
pub mod field;
pub mod keys;
pub mod rng64;
pub mod sha256;
pub mod shamir;

pub use dkg::KeyManagementGroup;
pub use envelope::Envelope;
pub use field::Fp;
pub use keys::{KeyPair, PublicKey, SecretKey};
pub use sha256::Sha256;
