//! 64-bit FNV-1a, the one hash behind every journal identity: the
//! instance, serve-config, conformance-case and campaign digests.

/// 64-bit FNV-1a over `bytes`. Callers feed integers little-endian, so a
/// digest is the same on every host.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors() {
        assert_eq!(fnv1a("".bytes()), 0xcbf29ce484222325);
        assert_eq!(fnv1a("a".bytes()), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a("foobar".bytes()), 0x85944171f73967e8);
    }
}
