//! The compiled-workload artifact codec on real reduced-instance artifacts:
//! every benchmark decodes to exactly the artifact it was compiled as, the
//! file stays compact, and every corruption — truncation, a flipped bit in
//! the header or the body, a wrong `body_bytes` — fails with a typed
//! [`ArtifactError`], directly and through a [`WorkloadCache`] over the
//! fault-injection filesystem.

use lsqca_compiler::CompilerConfig;
use lsqca_store::FaultyIo;
use lsqca_workloads::{
    ArtifactError, Benchmark, CacheEvent, CompiledWorkload, InstanceSize, InvalidationReason,
    WorkloadCache,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// The reduced SELECT artifact (the Fig. 15 workload), compiled under its
/// cache key so a cache recompile equals it, and its serialized bytes.
fn select() -> &'static (CompiledWorkload, Vec<u8>) {
    static SELECT: OnceLock<(CompiledWorkload, Vec<u8>)> = OnceLock::new();
    SELECT.get_or_init(|| {
        let cfg = Benchmark::Select.config(InstanceSize::Reduced);
        let key = WorkloadCache::key(&cfg.descriptor(), &CompilerConfig::default());
        let artifact = CompiledWorkload::compile(key, &cfg.build(), CompilerConfig::default());
        let bytes = artifact.to_bytes();
        (artifact, bytes)
    })
}

/// Length of the header line, excluding its newline.
fn header_len(bytes: &[u8]) -> usize {
    bytes.iter().position(|&b| b == b'\n').unwrap()
}

fn flip(bytes: &[u8], index: usize, bit: u32) -> Vec<u8> {
    let mut flipped = bytes.to_vec();
    flipped[index] ^= 1 << bit;
    flipped
}

/// `bytes` with the header's `body_bytes` replaced by `declared`.
fn with_body_bytes(bytes: &[u8], declared: &str) -> Vec<u8> {
    let newline = header_len(bytes);
    let header = std::str::from_utf8(&bytes[..newline]).unwrap();
    let body_len = bytes.len() - newline - 1;
    let field = format!("\"body_bytes\":{body_len}");
    assert!(header.contains(&field));
    let header = header.replace(&field, &format!("\"body_bytes\":{declared}"));
    [header.as_bytes(), &bytes[newline..]].concat()
}

#[test]
fn every_reduced_benchmark_decodes_to_its_compiled_artifact() {
    for benchmark in Benchmark::ALL {
        let cfg = benchmark.config(InstanceSize::Reduced);
        let compiled =
            CompiledWorkload::compile(cfg.descriptor(), &cfg.build(), CompilerConfig::default());
        let decoded = CompiledWorkload::from_bytes(&compiled.to_bytes()).unwrap();
        assert_eq!(decoded.program(), compiled.program(), "{benchmark:?}");
        assert_eq!(decoded.classes(), compiled.classes(), "{benchmark:?}");
        assert_eq!(decoded.trace(), compiled.trace(), "{benchmark:?}");
        assert_eq!(
            decoded.payload_hash(),
            compiled.payload_hash(),
            "{benchmark:?}"
        );
        assert_eq!(decoded, compiled, "{benchmark:?}");
    }
}

#[test]
fn reduced_select_artifact_takes_at_most_four_bytes_per_instruction() {
    let (artifact, bytes) = select();
    let instructions = artifact.program().len();
    let body = bytes.len() - header_len(bytes) - 1;
    assert!(instructions > 1000, "{instructions} instructions");
    assert!(
        body <= 4 * instructions,
        "{body} body bytes for {instructions} instructions"
    );
}

#[test]
fn every_truncation_fails_typed() {
    let (_, bytes) = select();
    let header = header_len(bytes);
    for len in 0..bytes.len() {
        match CompiledWorkload::from_bytes(&bytes[..len]) {
            Err(ArtifactError::Malformed { .. }) if len <= header => {}
            Err(ArtifactError::BodyLength { declared, actual })
                if len > header && actual == (len - header - 1) as u64 =>
            {
                assert_eq!(declared, (bytes.len() - header - 1) as u64);
            }
            other => panic!("truncation to {len} bytes gave {other:?}"),
        }
    }
}

#[test]
fn wrong_body_lengths_fail_typed() {
    let (_, bytes) = select();
    let body_len = bytes.len() - header_len(bytes) - 1;
    for declared in [0, body_len - 1, body_len + 1, 2 * body_len, usize::MAX] {
        assert!(
            matches!(
                CompiledWorkload::from_bytes(&with_body_bytes(bytes, &declared.to_string())),
                Err(ArtifactError::BodyLength { .. })
            ),
            "declared {declared}"
        );
    }
    for declared in ["-1", "1.5", "\"7\"", "null"] {
        assert_eq!(
            CompiledWorkload::from_bytes(&with_body_bytes(bytes, declared)),
            Err(ArtifactError::MissingField {
                field: "body_bytes"
            }),
            "declared {declared}"
        );
    }
}

proptest! {
    /// Any single flipped bit in the header line (its newline included)
    /// fails typed: a header field no longer parses or validates, or the
    /// payload hash no longer matches.
    #[test]
    fn header_bit_flips_fail_typed(index in 0usize..4096, bit in 0u32..8) {
        let (_, bytes) = select();
        let index = index % (header_len(bytes) + 1);
        prop_assert!(CompiledWorkload::from_bytes(&flip(bytes, index, bit)).is_err());
    }

    /// Any single flipped bit in the body fails the payload hash before the
    /// body is decoded.
    #[test]
    fn body_bit_flips_fail_the_payload_hash(index in 0usize..1 << 20, bit in 0u32..8) {
        let (_, bytes) = select();
        let body = header_len(bytes) + 1;
        let index = body + index % (bytes.len() - body);
        let result = CompiledWorkload::from_bytes(&flip(bytes, index, bit));
        prop_assert!(
            matches!(result, Err(ArtifactError::PayloadHashMismatch { .. })),
            "flip at {index}: {result:?}"
        );
    }
}

/// Each corruption mode, planted in a [`FaultyIo`]-backed cache, is
/// invalidated and recompiled to an artifact equal to a fresh compile; the
/// rewritten entry then serves hits again.
#[test]
fn corrupt_cache_entries_are_invalidated_and_recompiled() {
    let (fresh, bytes) = select();
    let header = header_len(bytes);
    let body_len = bytes.len() - header - 1;
    let corruptions = [
        ("truncated in the header", bytes[..header / 2].to_vec()),
        (
            "truncated in the body",
            bytes[..header + 1 + body_len / 2].to_vec(),
        ),
        ("header bit flip", flip(bytes, header / 3, 2)),
        ("body bit flip", flip(bytes, header + 1 + body_len / 3, 5)),
        (
            "wrong body_bytes",
            with_body_bytes(bytes, &(body_len + 1).to_string()),
        ),
    ];

    let cfg = Benchmark::Select.config(InstanceSize::Reduced);
    let config = CompilerConfig::default();
    let io = Arc::new(FaultyIo::reliable());
    let cache = WorkloadCache::with_io(Some(PathBuf::from("/cache")), io.clone());
    let path = cache.path_for(&cfg.descriptor(), &config).unwrap();
    let (compiled, event) = cache.load_or_compile(&cfg.descriptor(), config, || cfg.build());
    assert_eq!(event, CacheEvent::Compiled);
    assert_eq!(&compiled, fresh);
    assert_eq!(&io.files_snapshot()[&path], bytes);

    for (what, corrupt) in corruptions {
        io.tamper(&path, &corrupt);
        let (recompiled, event) = cache.load_or_compile(&cfg.descriptor(), config, || cfg.build());
        assert!(
            matches!(
                event,
                CacheEvent::Invalidated(InvalidationReason::Artifact(_))
            ),
            "{what}: {event:?}"
        );
        assert_eq!(&recompiled, fresh, "{what}");
        let (served, event) = cache.load_or_compile(&cfg.descriptor(), config, || cfg.build());
        assert_eq!(event, CacheEvent::Hit, "{what}: the entry was rewritten");
        assert_eq!(&served, fresh, "{what}");
    }
    assert_eq!(cache.stats().invalidated, 5);
}
