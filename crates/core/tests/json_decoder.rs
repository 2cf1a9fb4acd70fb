//! The decoder's checks, the twin of `json_encoder.rs`. WAL recovery and
//! `serde_json::from_str` decode text straight into typed values through
//! `Deserialize::read_json`, for every shape the derive supports and every
//! row and message the log holds. Two things hold it:
//!
//! - the golden table (`golden/decoder.jsonl`): what the `Value`-tree
//!   decoder, since deleted, made of 3 195 texts, canonical and noisy —
//!   each text's canonical re-encoding, or the exact words of its error.
//!   Every entry must reproduce byte for byte;
//! - a known answer: text that differs from a value's canonical text only
//!   in the freedoms JSON allows must decode to that value.

use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string, Number, Value};
use sphinx_core::messages::{CancelCause, PlanNotice, StatusReport};
use sphinx_core::state::{DagRow, DagState, JobRow, JobState, SiteStatsRow};
use sphinx_dag::{DagId, JobId, WorkloadSpec};
use sphinx_data::{FileSpec, LogicalFile, SiteId};
use sphinx_grid::StagedInput;
use sphinx_policy::UserId;
use sphinx_sim::{Duration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What decoding `text` as a `T` gives: the value's canonical re-encoding,
/// or the words of the error.
fn verdict<T: DeserializeOwned + Serialize>(text: &str) -> Result<String, String> {
    from_str::<T>(text)
        .map(|value| to_string(&value).unwrap())
        .map_err(|e| e.to_string())
}

/// The decoder of every type the golden table names.
fn decoder(ty: &str) -> fn(&str) -> Result<String, String> {
    macro_rules! by_name {
        ($($t:ident),*) => {
            match ty {
                $(stringify!($t) => verdict::<$t>,)*
                other => panic!("no decoder for {other}"),
            }
        };
    }
    by_name!(
        Doc,
        Edge,
        Mode,
        Event,
        JobRow,
        SiteStatsRow,
        SiteLeaseRow,
        LeaseRow,
        EpochRow,
        StatusReport,
        PlanNotice,
        DagRow
    )
}

/// Decode a noisy variant of the canonical `text` as a `ty`. A variant
/// that took no harm has a known answer, the value `text` is; any other
/// that decodes must re-encode to text that decodes to itself.
fn decodes_as_known(ty: &str, text: &str, noise: &mut Noise) -> Result<String, String> {
    let variant = noise.variant(text);
    let decode = decoder(ty);
    let got = decode(&variant);
    if !noise.harm {
        assert_eq!(got.as_deref(), Ok(text), "{variant}");
    }
    if let Ok(canonical) = &got {
        assert_eq!(decode(canonical).as_ref(), Ok(canonical), "{variant}");
    }
    got
}

/// One line of the golden table: a text, the type it is decoded as, and
/// what the tree decoder made of it.
#[derive(Deserialize)]
struct Frozen {
    ty: String,
    text: String,
    canonical: Option<String>,
    error: Option<String>,
}

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/decoder.jsonl");

/// Every verdict of the golden table, reproduced byte for byte.
#[test]
fn the_golden_table_reproduces() {
    let table = std::fs::read_to_string(GOLDEN).unwrap();
    let (mut read, mut refused) = (0, 0);
    for line in table.lines() {
        let entry: Frozen = from_str(line).unwrap();
        let want = match (entry.canonical, entry.error) {
            (Some(canonical), None) => Ok(canonical),
            (None, Some(error)) => Err(error),
            _ => panic!("a verdict is a value or an error: {line}"),
        };
        match &want {
            Ok(_) => read += 1,
            Err(_) => refused += 1,
        }
        assert_eq!(decoder(&entry.ty)(&entry.text), want, "{}", entry.text);
    }
    assert!(
        read + refused >= 2000 && refused * 10 >= (read + refused) * 3,
        "{read} read, {refused} refused"
    );
}

// ---- every shape the derive supports ----

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Id(u64);

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Mode {
    Idle,
    Busy { since: i64, note: String },
    Parked { at: Option<u32> },
}

/// Internally tagged: its tag is found by reading ahead.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum Event {
    Tick,
    MovedTo {
        zone: Option<Vec<Id>>,
        at: f64,
        mode: Mode,
        kindly: bool,
    },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Doc {
    zeta: Option<Vec<Option<f64>>>,
    name: String,
    alpha: (u64, i64),
    events: Vec<Event>,
    owner: Id,
    by_number: BTreeMap<u32, String>,
    raw: Value,
    shared: Arc<Id>,
    boxed: Box<Mode>,
    modes: Vec<Mode>,
    #[serde(default)]
    small: u32,
    #[serde(default)]
    flags: Vec<bool>,
    tiny: u8,
    narrow: f32,
    maybe: Option<i16>,
}

/// Shaped like the per-site quota-lease row the sharded deployment logged
/// when the golden table was written (the row has since been deleted).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SiteLeaseRow {
    site: u32,
    cpu_seconds: u64,
    jobs: u64,
}

/// Shaped like the sharded deployment's lease row when the golden table
/// was written (it has since lost `epoch`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LeaseRow {
    shard: u64,
    epoch: u64,
    last_heartbeat: SimTime,
    alive: bool,
}

/// Shaped like the sharded deployment's epoch row when the golden table
/// was written (the row has since been deleted).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EpochRow {
    id: u64,
    epoch: u64,
}

const STRINGS: [&str; 6] = [
    "",
    "plain",
    "quo\"te \\ back/slash",
    "ctl\u{0}\u{8}\u{c}\u{1f}\n\r\t",
    "naïve ✓ 😀",
    "{\"looks\":[\"like\",\"json\"]}",
];

const FLOATS: [f64; 7] = [0.0, -0.0, 1.0, -2.5, 1e15, 1e-9, 123.456];

fn doc((s, n, i, bits): (usize, u64, i64, usize)) -> Doc {
    let text = |k: usize| STRINGS[k % STRINGS.len()].to_owned();
    let float = |k: usize| FLOATS[k % FLOATS.len()];
    let big = [n, 0, u64::MAX][bits % 3];
    let small = [i, 0, -1, i64::MIN, i64::MAX][bits % 5];
    let mode = match bits % 3 {
        0 => Mode::Idle,
        1 => Mode::Busy {
            since: small,
            note: text(s + 1),
        },
        _ => Mode::Parked {
            at: (bits & 8 != 0).then_some(n as u32),
        },
    };
    let event = match bits & 2 {
        0 => Event::Tick,
        _ => Event::MovedTo {
            zone: (bits & 4 != 0).then(|| vec![Id(big), Id(n)]),
            at: float(s),
            mode: mode.clone(),
            kindly: bits & 8 != 0,
        },
    };
    Doc {
        zeta: (bits & 16 != 0).then(|| vec![Some(float(s + 2)), None, Some(float(bits))]),
        name: text(s),
        alpha: (big, small),
        events: vec![event.clone(), Event::Tick, event],
        owner: Id(n),
        by_number: [(7, text(s)), (10, text(s + 3)), (n as u32, text(bits))].into(),
        raw: from_str(r#"{"b":[1,-2,3.5,null,true],"a":"x\ty"}"#).unwrap(),
        shared: Arc::new(Id(big)),
        boxed: Box::new(mode.clone()),
        modes: vec![mode, Mode::Idle],
        small: n as u32,
        flags: vec![bits & 1 != 0, bits & 32 != 0],
        tiny: n as u8,
        narrow: float(bits) as f32,
        maybe: (bits & 64 != 0).then_some(i as i16),
    }
}

/// Every row and message the log holds, as canonical text and the name
/// of its type, for one seed.
fn log_rows((k, n, bits): (usize, u64, usize)) -> Vec<(String, &'static str)> {
    let float = |j: usize| FLOATS[j % FLOATS.len()];
    let text = |j: usize| STRINGS[j % STRINGS.len()];
    let maybe = |bit: usize| bits >> bit & 1 == 1;
    let job = JobId::new(DagId(n >> 24), (n & 0xff_ffff) as u32);
    let site = SiteId(n as u32);
    let at = SimTime::from_millis(n);
    let span = Duration::from_millis(n >> 3);
    let mut out = Vec::new();
    let mut add = |text: String, ty: &'static str| out.push((text, ty));
    add(
        to_string(&JobRow {
            id: job,
            state: JobState::VARIANTS[k % JobState::VARIANTS.len()],
            site: maybe(0).then_some(site),
            handle: maybe(1).then_some(n),
            reservation: maybe(2).then_some(u64::MAX),
            attempts: k as u32,
            submitted_at: maybe(3).then_some(at),
            exec_secs: maybe(4).then_some(float(k)),
            idle_secs: maybe(5).then_some(float(k + bits)),
        })
        .unwrap(),
        "JobRow",
    );
    add(
        to_string(&SiteStatsRow {
            site: site.0,
            completed: n,
            cancelled: k as u64,
            completion_secs_sum: float(bits),
            completion_samples: u64::MAX,
        })
        .unwrap(),
        "SiteStatsRow",
    );
    add(
        to_string(&SiteLeaseRow {
            site: site.0,
            cpu_seconds: n,
            jobs: k as u64,
        })
        .unwrap(),
        "SiteLeaseRow",
    );
    add(
        to_string(&LeaseRow {
            shard: k as u64,
            epoch: n,
            last_heartbeat: at,
            alive: maybe(6),
        })
        .unwrap(),
        "LeaseRow",
    );
    add(
        to_string(&EpochRow { id: 0, epoch: n }).unwrap(),
        "EpochRow",
    );
    let cause = [CancelCause::Held, CancelCause::Timeout][bits % 2];
    for report in [
        StatusReport::Queued { job, site },
        StatusReport::Running { job, site },
        StatusReport::Completed {
            job,
            site,
            total: span,
            exec: Duration::from_millis(k as u64),
            idle: span,
        },
        StatusReport::Cancelled { job, site, cause },
    ] {
        add(to_string(&report).unwrap(), "StatusReport");
    }
    let staging = (0..k % 3).map(|i| StagedInput {
        file: LogicalFile(text(k + i).to_owned()),
        size_mb: n,
        source: maybe(7 + i).then_some(site),
    });
    add(
        to_string(&PlanNotice {
            job,
            site,
            staging: staging.collect(),
            compute: span,
            output: FileSpec::new(text(k + 1), n),
            planned_at: at,
            archive_to: maybe(10).then_some(site),
        })
        .unwrap(),
        "PlanNotice",
    );
    let dag = WorkloadSpec::small(1, 1 + k as u32 % 6)
        .generate(&SimRng::new(n), 0)
        .remove(0);
    add(
        to_string(&DagRow {
            id: dag.id,
            dag: Arc::new(dag),
            user: UserId(k as u32),
            state: DagState::VARIANTS[k % DagState::VARIANTS.len()],
            submitted_at: at,
            finished_at: maybe(11).then_some(SimTime::MAX),
            deadline: maybe(12).then_some(at),
        })
        .unwrap(),
        "DagRow",
    );
    out
}

// ---- noisy text ----

/// Reprints a value with the freedoms JSON allows: whitespace, members
/// shuffled, repeated (the last one wins) or unknown, other spellings of
/// numbers and strings. Half the variants also take damage: a member
/// missing, a value of another type, an integer spelled as a float, an
/// unknown member in an object that is data rather than fields, or a byte
/// cut, added or replaced.
struct Noise {
    state: u64,
    harm: bool,
}

impl Noise {
    fn new(seed: u64) -> Self {
        Noise {
            state: seed,
            harm: false,
        }
    }

    fn next(&mut self) -> u64 {
        // splitmix64
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    /// `one_in(n)` in a variant that takes damage, never otherwise.
    fn harm(&mut self, n: usize) -> bool {
        self.harm && self.one_in(n)
    }

    fn ws(&mut self, out: &mut String) {
        if self.one_in(5) {
            out.push_str([" ", "\n", "\t", "\r "][self.below(4)]);
        }
    }

    fn stray(&mut self) -> Value {
        let pick = [
            "null",
            "true",
            "7",
            "-1",
            "4294967296",
            "1.0",
            "\"Idle\"",
            "\"x\"",
            "[]",
            "{}",
            "[1,2]",
            r#"{"Busy":{}}"#,
        ];
        from_str(pick[self.below(pick.len())]).unwrap()
    }

    fn string(&mut self, s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            let mut units = [0u16; 2];
            match c {
                '"' | '\\' => {
                    out.push('\\');
                    out.push(c);
                }
                '/' if self.one_in(2) => out.push_str("\\/"),
                c if (c as u32) < 0x20 || self.one_in(8) => {
                    for u in c.encode_utf16(&mut units) {
                        out.push_str(&format!("\\u{u:04X}"));
                    }
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn number(&mut self, n: &Number, out: &mut String) {
        // An integer has no negative zero, so `-0.0` keeps a float's
        // spelling.
        let integral =
            |f: f64| f.fract() == 0.0 && f.abs() < 1e15 && f.to_bits() != (-0.0f64).to_bits();
        let spelled = match n {
            Number::U(0) if self.one_in(3) => "-0".to_owned(),
            Number::U(n) if self.harm(40) => format!("{n}.0"),
            Number::U(n) if self.harm(40) => format!("{n}e0"),
            Number::F(f) if integral(*f) && self.one_in(3) => format!("{}", *f as i64),
            Number::F(f) if self.one_in(4) => format!("{f:e}"),
            n => n.to_string(),
        };
        out.push_str(&spelled);
    }

    /// `v` reprinted; `open` if it is data (a map or a `Value`) rather
    /// than a type's fields, where an unknown member is damage.
    fn value(&mut self, v: &Value, open: bool, out: &mut String) {
        self.ws(out);
        if self.harm(80) {
            let stray = self.stray();
            return self.value(&stray, open, out);
        }
        match v {
            Value::Number(n) => self.number(n, out),
            Value::String(s) => self.string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.value(item, open, out);
                }
                self.ws(out);
                out.push(']');
            }
            Value::Object(members) => {
                let mut fields: Vec<(&str, Value)> = Vec::new();
                for (name, value) in members {
                    if !self.harm(40) {
                        fields.push((name, value.clone()));
                    }
                }
                if self.one_in(6) && (self.harm || !open) {
                    fields.push(("unknown", self.stray()));
                }
                for i in (1..fields.len()).rev() {
                    fields.swap(i, self.below(i + 1));
                }
                // A repeated member goes anywhere before the one that
                // counts, the last.
                let mut items: Vec<(&str, Value)> = Vec::new();
                for (name, value) in fields {
                    if self.one_in(10) {
                        let at = self.below(items.len() + 1);
                        items.insert(at, (name, self.stray()));
                    }
                    items.push((name, value));
                }
                out.push('{');
                for (i, (name, value)) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.ws(out);
                    self.string(name, out);
                    self.ws(out);
                    out.push(':');
                    self.value(value, open || OPEN.contains(name), out);
                }
                self.ws(out);
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
        self.ws(out);
    }

    /// `text` reprinted, and now and then with one byte edited.
    fn variant(&mut self, text: &str) -> String {
        self.harm = self.one_in(2);
        let tree: Value = from_str(text).unwrap();
        let mut out = String::new();
        self.value(&tree, false, &mut out);
        if self.harm(3) {
            let cuts: Vec<usize> = (0..out.len())
                .filter(|&i| out.is_char_boundary(i))
                .collect();
            let at = cuts[self.below(cuts.len())];
            let next = cuts.iter().find(|&&i| i > at).copied().unwrap_or(out.len());
            let junk = ["\"", "{", "}", "]", ",", ":", "0", "-", ".", "e", "\\", "n"];
            let junk = junk[self.below(junk.len())];
            out = match self.below(3) {
                0 => format!("{}{}", &out[..at], &out[next..]),
                1 => format!("{}{junk}{}", &out[..at], &out[at..]),
                _ => format!("{}{junk}{}", &out[..at], &out[next..]),
            };
        }
        out
    }
}

/// Members whose objects are data, not fields: `Doc`'s map and `Value`.
const OPEN: [&str; 2] = ["by_number", "raw"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn derived_shapes_decode_their_noisy_text(
        seed in (0usize..64, any::<u64>(), any::<i64>(), 0usize..1024),
        noise in any::<u64>(),
    ) {
        let text = to_string(&doc(seed)).unwrap();
        prop_assert_eq!(verdict::<Doc>(&text), Ok(text.clone()));
        let mut noise = Noise::new(noise);
        for _ in 0..8 {
            let _ = decodes_as_known("Doc", &text, &mut noise);
        }
    }

    #[test]
    fn log_rows_and_messages_decode_their_noisy_text(
        seed in (0usize..64, any::<u64>(), 0usize..8192),
        noise in any::<u64>(),
    ) {
        let mut noise = Noise::new(noise);
        for (text, ty) in log_rows(seed) {
            prop_assert_eq!(decoder(ty)(&text), Ok(text.clone()));
            for _ in 0..4 {
                let _ = decodes_as_known(ty, &text, &mut noise);
            }
        }
    }
}

/// The noise leaves many variants readable and makes many unreadable, so
/// both halves of the decoder are exercised: what it accepts and what it
/// refuses.
#[test]
fn noisy_variants_are_both_read_and_refused() {
    let (mut read, mut refused, mut unharmed) = (0, 0, 0);
    let mut noise = Noise::new(7);
    for seed in 0..200 {
        let text = to_string(&doc((seed, seed as u64 * 977, -(seed as i64), seed * 13))).unwrap();
        for _ in 0..4 {
            match decodes_as_known("Doc", &text, &mut noise) {
                Ok(_) => read += 1,
                Err(_) => refused += 1,
            }
            unharmed += usize::from(!noise.harm);
        }
    }
    assert!(
        read > 150 && refused > 150 && unharmed > 300,
        "{read} read, {refused} refused, {unharmed} unharmed"
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Edge {
    n: u32,
    i: i64,
    #[serde(default)]
    d: u32,
    o: Option<u8>,
    f: f64,
}

/// Texts at the edges of what an `Edge` accepts, and what each decodes to.
fn edge_cases() -> Vec<(&'static str, Option<Edge>)> {
    let e = |n, i, d, o, f| Some(Edge { n, i, d, o, f });
    vec![
        (
            r#"{"n":4294967295,"i":0,"f":1}"#,
            e(u32::MAX, 0, 0, None, 1.0),
        ),
        // Out of range for a `u32`.
        (r#"{"n":4294967296,"i":0,"f":1}"#, None),
        // `-0` is the integer 0, in an unsigned field as well.
        (r#"{"n":-0,"i":-0,"f":-0}"#, e(0, 0, 0, None, 0.0)),
        // A float, even an integral one, is not an integer.
        (r#"{"n":1.0,"i":0,"f":1}"#, None),
        (r#"{"n":1e0,"i":0,"f":1}"#, None),
        (r#"{"n":1,"i":2.5,"f":1}"#, None),
        (
            r#"{"n":1,"i":-9223372036854775808,"f":0}"#,
            e(1, i64::MIN, 0, None, 0.0),
        ),
        (r#"{"n":1,"i":-9223372036854775809,"f":0}"#, None),
        (r#"{"n":1,"i":9223372036854775808,"f":0}"#, None),
        // Missing: `default` and `Option` fill in; a plain field may not.
        (r#"{"n":1,"i":1,"f":1,"o":null}"#, e(1, 1, 0, None, 1.0)),
        (
            r#"{"n":1,"i":1,"f":1,"o":255,"d":3}"#,
            e(1, 1, 3, Some(255), 1.0),
        ),
        (r#"{"n":1,"i":1,"f":1,"o":256}"#, None),
        (r#"{"i":1,"f":1}"#, None),
        (r#"{"n":1,"i":1}"#, None),
        // The last of a repeated member wins, whatever the first held.
        (r#"{"n":"x","n":1,"i":1,"f":1}"#, e(1, 1, 0, None, 1.0)),
        (r#"{"n":1,"n":"x","i":1,"f":1}"#, None),
        (
            r#"{"n":1,"i":1,"f":1,"d":[1,{"deep":null}],"d":2}"#,
            e(1, 1, 2, None, 1.0),
        ),
        (
            r#"{"n":1,"i":1,"f":1,"extra":{"a":[]}}"#,
            e(1, 1, 0, None, 1.0),
        ),
        // Text that is not JSON, even where a repeat would hide it.
        (r#"{"n":[1,],"n":1,"i":1,"f":1}"#, None),
        (r#"{"n":1,"i":1,"f":1} x"#, None),
        (r#"{"n":1,"i":1,"f":1e999}"#, None),
        ("[1,1,0,null,1]", None),
        ("null", None),
    ]
}

// Externally tagged: a name, or an object naming a variant; the first
// declared variant named wins, by its last occurrence.
fn mode_cases() -> [(&'static str, Option<&'static str>); 12] {
    [
        (r#""Idle""#, Some("Idle")),
        (r#"{"Busy":{"since":-1,"note":""}}"#, Some("Busy")),
        (
            r#"{"Parked":{},"Busy":{"since":1,"note":"n"}}"#,
            Some("Busy"),
        ),
        (
            r#"{"Parked":{"at":3},"Parked":{"at":null}}"#,
            Some("Parked"),
        ),
        (
            r#"{"Busy":{"since":1},"Busy":{"since":1,"note":"n"}}"#,
            Some("Busy"),
        ),
        (
            r#"{"Busy":{"since":1,"note":"n"},"Busy":{"since":1}}"#,
            None,
        ),
        (r#"{"Busy":{"since":1,"note":"n"},"extra":1}"#, Some("Busy")),
        (r#""Busy""#, None),
        (r#"{"Idle":null}"#, None),
        (r#"{}"#, None),
        (r#""Gone""#, None),
        ("7", None),
    ]
}

#[test]
fn edge_cases_decode_as_expected() {
    for (text, want) in edge_cases() {
        assert_eq!(from_str::<Edge>(text).ok(), want, "{text}");
    }
    for (text, want) in mode_cases() {
        let name = from_str::<Mode>(text).ok().map(|m| match m {
            Mode::Idle => "Idle",
            Mode::Busy { .. } => "Busy",
            Mode::Parked { .. } => "Parked",
        });
        assert_eq!(name, want, "{text}");
    }
}
