//! Compiled-workload artifacts: compile once, simulate many times.
//!
//! The paper's evaluation re-simulates the same compiled benchmark across
//! dozens of SAM configurations (floorplans × factory counts × hybrid
//! fractions), so everything derivable from the circuit alone is worth
//! computing exactly once. A [`CompiledWorkload`] bundles that per-program
//! state:
//!
//! * the lowered LSQCA instruction stream,
//! * the precompiled per-instruction [`LatencyClass`] vector (immutable per
//!   program, previously re-derived by every simulator run),
//! * the operand tables — memory footprint and the circuit's register map,
//!   which role-based hybrid placement (Fig. 15) needs,
//! * qubit-count metadata (`num_qubits`, `t_gates`).
//!
//! # Artifact layout
//!
//! [`CompiledWorkload::to_bytes`] stores the instruction stream once, as the
//! binary body of the execution trace, which is what the on-disk cache of
//! [`crate::cache`] keeps (see that module for the keying and invalidation
//! rules):
//!
//! ```text
//! {"schema":"lsqca-workload-artifact-v2",…,"body_bytes":N,"payload_hash":"…"}\n
//! <N bytes: ExecutionTrace::encode — opcode byte + LEB128 operands per record>
//! ```
//!
//! The header is one line of compact JSON: schema, `isa_version`,
//! `trace_revision`, descriptor, program name, `num_qubits`, `t_gates`,
//! `memory_footprint`, registers, `body_bytes` and `payload_hash`. Loading
//! decodes the body into the program and its trace in one pass, without
//! lowering ([`ExecutionTrace::decode`]), and re-classifies the program with
//! [`LatencyTable::paper`], so neither is stored a second time.
//!
//! The payload hash is FNV-1a over the header's identity fields (descriptor,
//! name, qubit and T counts, footprint, registers) followed by the body
//! bytes. It is computed once at compile time, verified in one pass on load
//! before the body is decoded, and carried as a plain field: result-store
//! keys embed it.

use lsqca_circuit::{Circuit, RegisterMap, RegisterRole};
use lsqca_compiler::{compile, CompilerConfig};
use lsqca_isa::{ExecutionTrace, LatencyClass, LatencyTable, Program, ISA_VERSION, TRACE_REVISION};
use lsqca_json::{Json, ToJson};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Schema identifier embedded in every serialized artifact's header.
pub const ARTIFACT_SCHEMA: &str = "lsqca-workload-artifact-v2";

/// Number of circuit compilations performed by this process (every
/// [`CompiledWorkload::compile`] call, cached or not). The warm-cache
/// acceptance tests assert this stays flat across a cache-served sweep.
static COMPILE_COUNT: AtomicU64 = AtomicU64::new(0);

/// Total circuit compilations performed by this process so far.
pub fn compile_count() -> u64 {
    COMPILE_COUNT.load(Ordering::Relaxed)
}

/// A workload compiled down to everything the simulator consumes, produced
/// once per `(generator config, compiler config)` pair.
///
/// Every field is private and fixed at construction, so the payload hash can
/// never go stale.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledWorkload {
    program: Program,
    num_qubits: u32,
    t_gates: u64,
    descriptor: String,
    classes: Vec<LatencyClass>,
    trace: ExecutionTrace,
    memory_footprint: u32,
    registers: RegisterMap,
    payload_hash: u64,
}

impl CompiledWorkload {
    /// Compiles `circuit` into an artifact. `descriptor` identifies the
    /// workload-generator configuration that produced the circuit and becomes
    /// part of the cache key; ad-hoc callers can pass any stable string.
    pub fn compile(
        descriptor: impl Into<String>,
        circuit: &Circuit,
        config: CompilerConfig,
    ) -> Self {
        Self::compile_encoded(descriptor, circuit, config).0
    }

    /// [`CompiledWorkload::compile`], also returning the encoded trace body
    /// the payload hash was taken over, so a cache publishing the artifact
    /// ([`CompiledWorkload::bytes_with_body`]) does not encode it again.
    pub(crate) fn compile_encoded(
        descriptor: impl Into<String>,
        circuit: &Circuit,
        config: CompilerConfig,
    ) -> (Self, Vec<u8>) {
        COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
        let compiled = compile(circuit, config);
        let classes = LatencyTable::paper().classify_program(&compiled.program);
        let trace = lsqca_isa::lower(&compiled.program);
        let memory_footprint = compiled
            .program
            .iter()
            .flat_map(|i| i.memory_operands())
            .map(|m| m.index() + 1)
            .max()
            .unwrap_or(0);
        let descriptor = descriptor.into();
        let registers = circuit.registers().clone();
        let body = trace.encode();
        let payload_hash = payload_hash_of(
            &descriptor,
            compiled.program.name(),
            compiled.num_qubits,
            compiled.t_gates,
            memory_footprint,
            &registers,
            &body,
        );
        let artifact = CompiledWorkload {
            descriptor,
            classes,
            trace,
            memory_footprint,
            registers,
            num_qubits: compiled.num_qubits,
            t_gates: compiled.t_gates,
            program: compiled.program,
            payload_hash,
        };
        (artifact, body)
    }

    /// The LSQCA instruction stream.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of data qubits (SAM addresses) the program was compiled for.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of T / T† gates translated into magic-state teleportations.
    pub fn t_gates(&self) -> u64 {
        self.t_gates
    }

    /// The workload-generator descriptor this artifact was compiled from.
    pub fn descriptor(&self) -> &str {
        &self.descriptor
    }

    /// The precompiled per-instruction latency classes (parallel to the
    /// instruction stream).
    pub fn classes(&self) -> &[LatencyClass] {
        &self.classes
    }

    /// The pre-lowered execution trace (parallel to the instruction stream).
    /// Lowered exactly once at [`CompiledWorkload::compile`] time — a cached
    /// artifact carries the trace as its body and decodes it on load, so warm
    /// sweeps perform zero lowerings (`lsqca_isa::lowering_count` stays flat).
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// One past the highest SAM address the program touches (0 for an empty
    /// program) — precomputed so per-run simulator sizing is O(1).
    pub fn memory_footprint(&self) -> u32 {
        self.memory_footprint
    }

    /// The circuit's register structure, kept so role-based hybrid placement
    /// works without the source circuit.
    pub fn registers(&self) -> &RegisterMap {
        &self.registers
    }

    /// The FNV-1a content hash of the artifact payload (see the module docs),
    /// computed at compile time and verified on load.
    pub fn payload_hash(&self) -> u64 {
        self.payload_hash
    }

    /// Serializes the artifact to its on-disk form: a compact JSON header
    /// line, then the binary trace body.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes_with_body(&self.trace.encode())
    }

    /// [`CompiledWorkload::to_bytes`] around `body`, which must be this
    /// artifact's encoded trace (as [`CompiledWorkload::compile_encoded`]
    /// returns it).
    pub(crate) fn bytes_with_body(&self, body: &[u8]) -> Vec<u8> {
        let header = Json::obj([
            ("schema", ARTIFACT_SCHEMA.to_json()),
            ("isa_version", ISA_VERSION.to_json()),
            ("trace_revision", TRACE_REVISION.to_json()),
            ("descriptor", self.descriptor.to_json()),
            ("name", self.program.name().to_json()),
            ("num_qubits", self.num_qubits.to_json()),
            ("t_gates", self.t_gates.to_json()),
            ("memory_footprint", self.memory_footprint.to_json()),
            (
                "registers",
                Json::arr(self.registers.registers().iter().map(|r| {
                    Json::obj([
                        ("name", r.name.to_json()),
                        ("role", r.role.name().to_json()),
                        ("len", (r.len() as u64).to_json()),
                    ])
                })),
            ),
            ("body_bytes", (body.len() as u64).to_json()),
            (
                "payload_hash",
                format!("{:016x}", self.payload_hash).to_json(),
            ),
        ])
        .compact();
        let mut bytes = Vec::with_capacity(header.len() + 1 + body.len());
        bytes.extend_from_slice(header.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(body);
        bytes
    }

    /// Deserializes an artifact, verifying schema, ISA version, trace
    /// revision, body length and the payload hash before decoding the body.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError`] naming the first check that failed; the
    /// cache treats every variant as "recompile".
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let newline =
            bytes
                .iter()
                .position(|&b| b == b'\n')
                .ok_or_else(|| ArtifactError::Malformed {
                    what: "no header line".to_string(),
                })?;
        let (header, body) = (&bytes[..newline], &bytes[newline + 1..]);
        let doc = std::str::from_utf8(header)
            .map_err(|e| e.to_string())
            .and_then(|text| lsqca_json::parse(text).map_err(|e| e.to_string()))
            .map_err(|e| ArtifactError::Malformed {
                what: format!("header: {e}"),
            })?;

        let field = |key: &'static str| {
            doc.get(key)
                .ok_or(ArtifactError::MissingField { field: key })
        };
        let str_field = |key: &'static str| {
            field(key).and_then(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or(ArtifactError::MissingField { field: key })
            })
        };
        let u64_field = |key: &'static str| {
            field(key).and_then(|v| v.as_u64().ok_or(ArtifactError::MissingField { field: key }))
        };
        let u32_field = |key: &'static str| {
            u64_field(key).and_then(|v| {
                u32::try_from(v).map_err(|_| ArtifactError::MissingField { field: key })
            })
        };

        let schema = str_field("schema")?;
        if schema != ARTIFACT_SCHEMA {
            return Err(ArtifactError::SchemaMismatch { found: schema });
        }
        let isa_version = u64_field("isa_version")?;
        if isa_version != u64::from(ISA_VERSION) {
            return Err(ArtifactError::IsaVersionMismatch {
                found: isa_version,
                expected: ISA_VERSION,
            });
        }
        let trace_revision = u64_field("trace_revision")?;
        if trace_revision != u64::from(TRACE_REVISION) {
            return Err(ArtifactError::TraceRevisionMismatch {
                found: trace_revision,
                expected: TRACE_REVISION,
            });
        }

        let descriptor = str_field("descriptor")?;
        let name = str_field("name")?;
        let num_qubits = u32_field("num_qubits")?;
        let t_gates = u64_field("t_gates")?;
        let memory_footprint = u32_field("memory_footprint")?;

        let mut registers = RegisterMap::new();
        for entry in field("registers")?
            .as_array()
            .ok_or(ArtifactError::MissingField { field: "registers" })?
        {
            let reg_name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or(ArtifactError::MissingField { field: "registers" })?;
            let role_name = entry
                .get("role")
                .and_then(Json::as_str)
                .ok_or(ArtifactError::MissingField { field: "registers" })?;
            let role =
                RegisterRole::from_name(role_name).ok_or_else(|| ArtifactError::Malformed {
                    what: format!("unknown register role `{role_name}`"),
                })?;
            let len = entry
                .get("len")
                .and_then(Json::as_u64)
                .and_then(|len| u32::try_from(len).ok())
                .ok_or(ArtifactError::MissingField { field: "registers" })?;
            registers.add(reg_name, role, len);
        }

        let body_bytes = u64_field("body_bytes")?;
        if body_bytes != body.len() as u64 {
            return Err(ArtifactError::BodyLength {
                declared: body_bytes,
                actual: body.len() as u64,
            });
        }

        // Verify the payload hash over the stored bytes *before* decoding
        // the body: corruption is rejected at hashing cost, and a verified
        // artifact is decoded once.
        let stored_hash = str_field("payload_hash")?;
        let payload_hash = payload_hash_of(
            &descriptor,
            &name,
            num_qubits,
            t_gates,
            memory_footprint,
            &registers,
            body,
        );
        let actual = format!("{payload_hash:016x}");
        if stored_hash != actual {
            return Err(ArtifactError::PayloadHashMismatch {
                stored: stored_hash,
                actual,
            });
        }

        // Decoding (not re-lowering) keeps warm loads off the lowering
        // counter: a cache hit must leave `lsqca_isa::lowering_count` flat.
        let (program, trace) =
            ExecutionTrace::decode(body, name).map_err(|e| ArtifactError::Malformed {
                what: e.to_string(),
            })?;
        let classes = LatencyTable::paper().classify_program(&program);

        Ok(CompiledWorkload {
            descriptor,
            classes,
            trace,
            memory_footprint,
            registers,
            num_qubits,
            t_gates,
            program,
            payload_hash,
        })
    }
}

/// The payload hash of the module docs: FNV-1a over the identity fields, one
/// line each, then the binary trace body.
fn payload_hash_of(
    descriptor: &str,
    name: &str,
    num_qubits: u32,
    t_gates: u64,
    memory_footprint: u32,
    registers: &RegisterMap,
    body: &[u8],
) -> u64 {
    let mut hash = Fnv1a::new();
    hash.update(
        format!(
            "{descriptor}\n{name}\nqubits={num_qubits} t_gates={t_gates} \
             footprint={memory_footprint}\n"
        )
        .as_bytes(),
    );
    for r in registers.registers() {
        hash.update(format!("reg {} {} {}\n", r.name, r.role, r.len()).as_bytes());
    }
    hash.update(body);
    hash.finish()
}

// The FNV-1a hasher moved to `lsqca-store` so the result store and this cache
// share one implementation; re-exported here to keep the historical paths.
pub use lsqca_store::{fnv1a64, Fnv1a};

/// Why a serialized artifact was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The header lacks a required field (or it has the wrong type).
    MissingField {
        /// Name of the missing field.
        field: &'static str,
    },
    /// The header carries a different schema identifier.
    SchemaMismatch {
        /// The schema string found in the header.
        found: String,
    },
    /// The artifact was compiled against a different ISA version.
    IsaVersionMismatch {
        /// The version recorded in the header.
        found: u64,
        /// The version this build implements.
        expected: u32,
    },
    /// The artifact's execution trace was lowered by a different trace
    /// revision; the cache quarantines the artifact and re-lowers.
    TraceRevisionMismatch {
        /// The trace revision recorded in the header.
        found: u64,
        /// The trace revision this build lowers.
        expected: u32,
    },
    /// The body is not as long as the header declares (a truncated or
    /// extended file).
    BodyLength {
        /// The `body_bytes` the header declares.
        declared: u64,
        /// The number of bytes after the header line.
        actual: u64,
    },
    /// Something failed to decode (header line, register role, trace body).
    Malformed {
        /// Description of the malformed content.
        what: String,
    },
    /// The recomputed content hash disagrees with the stored one.
    PayloadHashMismatch {
        /// Hash recorded in the header.
        stored: String,
        /// Hash recomputed from the header fields and the body.
        actual: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::MissingField { field } => {
                write!(f, "missing or mistyped field `{field}`")
            }
            ArtifactError::SchemaMismatch { found } => {
                write!(f, "schema `{found}` is not `{ARTIFACT_SCHEMA}`")
            }
            ArtifactError::IsaVersionMismatch { found, expected } => {
                write!(f, "ISA version {found} (this build implements {expected})")
            }
            ArtifactError::TraceRevisionMismatch { found, expected } => {
                write!(
                    f,
                    "trace revision {found} (this build lowers trace revision {expected})"
                )
            }
            ArtifactError::BodyLength { declared, actual } => {
                write!(f, "body is {actual} bytes, header declares {declared}")
            }
            ArtifactError::Malformed { what } => write!(f, "malformed artifact: {what}"),
            ArtifactError::PayloadHashMismatch { stored, actual } => {
                write!(f, "payload hash {stored} != recomputed {actual}")
            }
        }
    }
}

impl Error for ArtifactError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Benchmark, InstanceSize};
    use lsqca_isa::{Instruction, MemAddr};

    fn sample() -> CompiledWorkload {
        let cfg = Benchmark::Ghz.config(InstanceSize::Reduced);
        CompiledWorkload::compile(cfg.descriptor(), &cfg.build(), CompilerConfig::default())
    }

    fn select() -> CompiledWorkload {
        let cfg = Benchmark::Select.config(InstanceSize::Reduced);
        CompiledWorkload::compile(cfg.descriptor(), &cfg.build(), CompilerConfig::default())
    }

    /// The artifact's header line, and its body.
    fn split(bytes: &[u8]) -> (String, &[u8]) {
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        (
            String::from_utf8(bytes[..newline].to_vec()).unwrap(),
            &bytes[newline + 1..],
        )
    }

    fn join(header: &str, body: &[u8]) -> Vec<u8> {
        [header.as_bytes(), b"\n", body].concat()
    }

    #[test]
    fn compile_fills_every_table() {
        // The compile counter is process-wide and tests compiling in
        // parallel advance it too. A compile that counted itself twice (or
        // not at all) would miss on every attempt, so one attempt that
        // advances it by exactly one shows each compile counts once.
        let compile_counts_once = || {
            let before = compile_count();
            sample();
            compile_count() == before + 1
        };
        assert!((0..100).any(|_| compile_counts_once()));
        let w = sample();
        assert!(!w.program.is_empty());
        assert_eq!(w.classes().len(), w.program.len());
        assert_eq!(w.num_qubits, 16);
        assert!(w.memory_footprint() <= w.num_qubits);
        assert!(w.memory_footprint() > 0);
        assert!(w.descriptor().contains("Ghz"));
    }

    #[test]
    fn byte_round_trip_preserves_the_artifact() {
        let w = select();
        let restored = CompiledWorkload::from_bytes(&w.to_bytes()).unwrap();
        assert_eq!(restored, w);
        assert!(!restored.registers().registers().is_empty());
        assert_eq!(
            restored.registers().qubits_with_role(RegisterRole::Control),
            w.registers().qubits_with_role(RegisterRole::Control)
        );
        assert!(!restored
            .registers()
            .qubits_with_role(RegisterRole::Control)
            .is_empty());
        // Re-serializing a loaded artifact reproduces the file exactly.
        assert_eq!(restored.to_bytes(), w.to_bytes());
    }

    #[test]
    fn header_is_one_compact_json_line_describing_the_body() {
        let w = select();
        let bytes = w.to_bytes();
        let (header, body) = split(&bytes);
        let doc = lsqca_json::parse(&header).unwrap();
        assert_eq!(doc.compact(), header);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(ARTIFACT_SCHEMA)
        );
        assert_eq!(
            doc.get("body_bytes").and_then(Json::as_u64),
            Some(body.len() as u64)
        );
        assert_eq!(body, w.trace().encode().as_slice());
    }

    #[test]
    fn payload_hash_covers_the_identity_fields_and_the_body() {
        let compiled = select();
        let expected = payload_hash_of(
            &compiled.descriptor,
            compiled.program.name(),
            compiled.num_qubits,
            compiled.t_gates,
            compiled.memory_footprint,
            &compiled.registers,
            &compiled.trace.encode(),
        );
        assert_eq!(compiled.payload_hash(), expected);
        let bytes = compiled.to_bytes();
        let (header, _) = split(&bytes);
        let doc = lsqca_json::parse(&header).unwrap();
        assert_eq!(
            doc.get("payload_hash").and_then(Json::as_str),
            Some(format!("{expected:016x}").as_str())
        );
        // Loading keeps the hash it verified.
        let loaded = CompiledWorkload::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.payload_hash(), expected);
    }

    #[test]
    fn tampered_headers_are_rejected() {
        let w = sample();
        let bytes = w.to_bytes();
        let (header, body) = split(&bytes);
        let load = |header: String| CompiledWorkload::from_bytes(&join(&header, body));

        // Flipped ISA version.
        assert!(matches!(
            load(header.replace(
                &format!("\"isa_version\":{ISA_VERSION}"),
                "\"isa_version\":999"
            )),
            Err(ArtifactError::IsaVersionMismatch { found: 999, .. })
        ));

        // Wrong schema string; a v1 artifact's schema is reported as such.
        assert!(matches!(
            load(header.replace(ARTIFACT_SCHEMA, "lsqca-workload-artifact-v1")),
            Err(ArtifactError::SchemaMismatch { found }) if found.ends_with("-v1")
        ));

        // Mutated qubit count: caught by the payload hash.
        assert!(matches!(
            load(header.replace(
                &format!("\"num_qubits\":{}", w.num_qubits),
                "\"num_qubits\":1"
            )),
            Err(ArtifactError::PayloadHashMismatch { .. })
        ));

        // Missing field.
        assert!(matches!(
            load(header.replace("\"t_gates\"", "\"t_gates_gone\"")),
            Err(ArtifactError::MissingField { field: "t_gates" })
        ));

        // Not JSON at all, and no header line.
        assert!(matches!(
            load(header.replacen('{', "[", 1)),
            Err(ArtifactError::Malformed { what }) if what.starts_with("header")
        ));
        assert!(matches!(
            CompiledWorkload::from_bytes(header.as_bytes()),
            Err(ArtifactError::Malformed { .. })
        ));

        // Flipped trace revision: the error names both revisions.
        let err = load(header.replace(
            &format!("\"trace_revision\":{TRACE_REVISION}"),
            "\"trace_revision\":777",
        ))
        .unwrap_err();
        assert!(matches!(
            err,
            ArtifactError::TraceRevisionMismatch { found: 777, .. }
        ));
        assert!(err.to_string().contains("trace revision 777"));
        assert!(err.to_string().contains(&TRACE_REVISION.to_string()));
    }

    #[test]
    fn body_must_have_the_declared_length() {
        let bytes = sample().to_bytes();
        let truncated = &bytes[..bytes.len() - 1];
        assert!(matches!(
            CompiledWorkload::from_bytes(truncated),
            Err(ArtifactError::BodyLength { declared, actual }) if declared == actual + 1
        ));
        let extended = [bytes.as_slice(), &[0]].concat();
        assert!(matches!(
            CompiledWorkload::from_bytes(&extended),
            Err(ArtifactError::BodyLength { declared, actual }) if declared + 1 == actual
        ));
    }

    #[test]
    fn undecodable_body_with_a_matching_hash_is_malformed() {
        // A body the hash vouches for but the trace decoder rejects (unknown
        // opcode): the decoder, not the hash, must stop it.
        let w = sample();
        let body = [0x7f, 0];
        let hash = payload_hash_of(
            &w.descriptor,
            w.program.name(),
            w.num_qubits,
            w.t_gates,
            w.memory_footprint,
            &w.registers,
            &body,
        );
        let bytes = w.to_bytes();
        let (header, old_body) = split(&bytes);
        let header = header
            .replace(
                &format!("\"body_bytes\":{}", old_body.len()),
                "\"body_bytes\":2",
            )
            .replace(&format!("{:016x}", w.payload_hash), &format!("{hash:016x}"));
        assert!(matches!(
            CompiledWorkload::from_bytes(&join(&header, &body)),
            Err(ArtifactError::Malformed { what }) if what.contains("unknown opcode")
        ));
    }

    #[test]
    fn loading_an_artifact_does_not_relower() {
        let w = sample();
        let bytes = w.to_bytes();
        // The lowering counter is process-wide and tests compiling in
        // parallel advance it too. A load that lowered would advance it on
        // every attempt, so one attempt that leaves it flat shows the load
        // decoded instead.
        let load_left_counter_flat = || {
            let before = lsqca_isa::lowering_count();
            CompiledWorkload::from_bytes(&bytes).unwrap();
            lsqca_isa::lowering_count() == before
        };
        assert!((0..100).any(|_| load_left_counter_flat()));
        let restored = CompiledWorkload::from_bytes(&bytes).unwrap();
        assert_eq!(restored.trace(), w.trace());
        assert_eq!(restored.trace().len(), w.program.len());
    }

    #[test]
    fn classes_agree_with_fresh_classification() {
        let w = sample();
        assert_eq!(
            w.classes(),
            LatencyTable::paper()
                .classify_program(&w.program)
                .as_slice()
        );
    }

    #[test]
    fn empty_and_registerless_programs_serialize() {
        let circuit = Circuit::new("empty", 0);
        let w = CompiledWorkload::compile("adhoc:empty", &circuit, CompilerConfig::default());
        assert_eq!(w.memory_footprint(), 0);
        let restored = CompiledWorkload::from_bytes(&w.to_bytes()).unwrap();
        assert_eq!(restored, w);
    }

    #[test]
    fn footprint_tracks_the_highest_address() {
        let mut circuit = Circuit::new("wide", 9);
        circuit.h(8);
        let w = CompiledWorkload::compile("adhoc:wide", &circuit, CompilerConfig::default());
        assert_eq!(w.memory_footprint(), 9);
        assert!(w
            .program
            .iter()
            .any(|i| matches!(i, Instruction::HdM { mem } if *mem == MemAddr(8))));
    }

    #[test]
    fn fnv_is_stable() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn artifact_errors_render() {
        assert!(ArtifactError::MissingField { field: "x" }
            .to_string()
            .contains("x"));
        assert!(ArtifactError::IsaVersionMismatch {
            found: 9,
            expected: 1
        }
        .to_string()
        .contains("9"));
        assert_eq!(
            ArtifactError::BodyLength {
                declared: 5,
                actual: 3
            }
            .to_string(),
            "body is 3 bytes, header declares 5"
        );
    }
}
