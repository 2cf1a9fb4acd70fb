//! The decoder oracle, the twin of `json_encoder.rs`. WAL recovery and
//! `serde_json::from_str` decode text straight into typed values through
//! `Deserialize::read_json`; parsing the text into a `Value` tree and
//! decoding that (`from_value`, which hands the tree to
//! `from_owned_value`) is its oracle. On any text, canonical or not, the
//! two must accept exactly the same documents, give equal values and word
//! their errors alike, for every shape the derive supports and every row
//! and message the log holds.

use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use serde_json::{from_str, from_value, to_string, Number, Value};
use sphinx_core::messages::{CancelCause, PlanNotice, StatusReport};
use sphinx_core::state::{DagRow, DagState, JobRow, JobState, SiteStatsRow};
use sphinx_core::SiteLeaseRow;
use sphinx_dag::{DagId, JobId, WorkloadSpec};
use sphinx_data::{FileSpec, LogicalFile, SiteId};
use sphinx_grid::StagedInput;
use sphinx_policy::UserId;
use sphinx_sim::{Duration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Decode `text` both ways; they must agree, down to the words of an
/// error. Returns whether it decoded.
fn agrees<T: DeserializeOwned + Serialize>(text: &str) -> bool {
    let read = from_str::<T>(text);
    let tree = from_str::<Value>(text).and_then(from_value::<T>);
    match (read, tree) {
        (Ok(read), Ok(tree)) => {
            assert_eq!(
                to_string(&read).unwrap(),
                to_string(&tree).unwrap(),
                "{text}"
            );
            true
        }
        (Err(read), Err(tree)) => {
            assert_eq!(read.to_string(), tree.to_string(), "{text}");
            false
        }
        (Ok(_), Err(e)) => panic!("read {text}, which the tree decoder refuses: {e}"),
        (Err(e), Ok(_)) => panic!("refused {text} ({e}), which the tree decoder reads"),
    }
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

/// Internally tagged: decodes through the tree either way.
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

/// Shaped like the sharded deployment's (private) lease row.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LeaseRow {
    shard: u64,
    epoch: u64,
    last_heartbeat: SimTime,
    alive: bool,
}

/// Shaped like the sharded deployment's (private) epoch row.
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

/// Checks one text both ways (an `agrees::<T>`); true if it decoded.
type Decoder = fn(&str) -> bool;

/// Every row and message the log holds, as canonical text and its
/// decoder, for one seed.
fn log_rows((k, n, bits): (usize, u64, usize)) -> Vec<(String, Decoder)> {
    let float = |j: usize| FLOATS[j % FLOATS.len()];
    let text = |j: usize| STRINGS[j % STRINGS.len()];
    let maybe = |bit: usize| bits >> bit & 1 == 1;
    let job = JobId::new(DagId(n >> 24), (n & 0xff_ffff) as u32);
    let site = SiteId(n as u32);
    let at = SimTime::from_millis(n);
    let span = Duration::from_millis(n >> 3);
    let mut out: Vec<(String, Decoder)> = Vec::new();
    let mut add = |text: String, decode: Decoder| out.push((text, decode));
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
        agrees::<JobRow>,
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
        agrees::<SiteStatsRow>,
    );
    add(
        to_string(&SiteLeaseRow {
            site: site.0,
            cpu_seconds: n,
            jobs: k as u64,
        })
        .unwrap(),
        agrees::<SiteLeaseRow>,
    );
    add(
        to_string(&LeaseRow {
            shard: k as u64,
            epoch: n,
            last_heartbeat: at,
            alive: maybe(6),
        })
        .unwrap(),
        agrees::<LeaseRow>,
    );
    add(
        to_string(&EpochRow { id: 0, epoch: n }).unwrap(),
        agrees::<EpochRow>,
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
        add(to_string(&report).unwrap(), agrees::<StatusReport>);
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
        agrees::<PlanNotice>,
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
        agrees::<DagRow>,
    );
    out
}

// ---- text a decoder must read as its tree reads it ----

/// Reprints a value with the freedoms JSON allows: whitespace, members
/// shuffled, repeated (the last one wins) or unknown, other spellings of
/// numbers and strings. Half the variants also take damage: a member
/// missing, a value of another type, an integer spelled as a float, or a
/// byte cut, added or replaced.
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
        let spelled = match n {
            Number::U(0) if self.one_in(3) => "-0".to_owned(),
            Number::U(n) if self.harm(40) => format!("{n}.0"),
            Number::U(n) if self.harm(40) => format!("{n}e0"),
            Number::F(f) if f.fract() == 0.0 && f.abs() < 1e15 && self.one_in(3) => {
                format!("{}", *f as i64)
            }
            Number::F(f) if self.one_in(4) => format!("{f:e}"),
            n => n.to_string(),
        };
        out.push_str(&spelled);
    }

    fn value(&mut self, v: &Value, out: &mut String) {
        self.ws(out);
        if self.harm(80) {
            let stray = self.stray();
            return self.value(&stray, out);
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
                    self.value(item, out);
                }
                self.ws(out);
                out.push(']');
            }
            Value::Object(members) => {
                let mut items: Vec<(&str, Value)> = Vec::new();
                for (name, value) in members {
                    if self.harm(40) {
                        continue;
                    }
                    if self.one_in(10) {
                        items.push((name, self.stray()));
                    }
                    items.push((name, value.clone()));
                }
                if self.one_in(6) {
                    items.push(("unknown", self.stray()));
                }
                // Shuffle, but keep each name's occurrences in order.
                for i in (1..items.len()).rev() {
                    let j = self.below(i + 1);
                    if items[i].0 != items[j].0 {
                        items.swap(i, j);
                    }
                }
                let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
                for (name, _) in &items {
                    *seen.entry(name).or_default() += 1;
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
                    self.value(value, out);
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
        self.value(&tree, &mut out);
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn derived_shapes_decode_as_their_tree(
        seed in (0usize..64, any::<u64>(), any::<i64>(), 0usize..1024),
        noise in any::<u64>(),
    ) {
        let text = to_string(&doc(seed)).unwrap();
        prop_assert!(agrees::<Doc>(&text));
        let mut noise = Noise::new(noise);
        for _ in 0..8 {
            agrees::<Doc>(&noise.variant(&text));
        }
    }

    #[test]
    fn log_rows_and_messages_decode_as_their_tree(
        seed in (0usize..64, any::<u64>(), 0usize..8192),
        noise in any::<u64>(),
    ) {
        let mut noise = Noise::new(noise);
        for (text, decodes) in log_rows(seed) {
            prop_assert!(decodes(&text), "{}", text);
            for _ in 0..4 {
                decodes(&noise.variant(&text));
            }
        }
    }
}

/// The noise leaves many variants readable and makes many unreadable, so
/// both halves of "accepts exactly what the tree accepts" are exercised.
#[test]
fn noisy_variants_are_both_read_and_refused() {
    let (mut read, mut refused) = (0, 0);
    let mut noise = Noise::new(7);
    for seed in 0..200 {
        let text = to_string(&doc((seed, seed as u64 * 977, -(seed as i64), seed * 13))).unwrap();
        for _ in 0..4 {
            match agrees::<Doc>(&noise.variant(&text)) {
                true => read += 1,
                false => refused += 1,
            }
        }
    }
    assert!(
        read > 150 && refused > 150,
        "{read} read, {refused} refused"
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

#[test]
fn edge_cases_decode_as_their_tree() {
    let edge = |text: &str| {
        let decoded = agrees::<Edge>(text);
        (decoded, from_str::<Edge>(text).ok())
    };
    let e = |n, i, d, o, f| Some(Edge { n, i, d, o, f });
    for (text, want) in [
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
    ] {
        assert_eq!(edge(text), (want.is_some(), want), "{text}");
    }
    // Externally tagged: a name, or an object naming a variant; the first
    // declared variant named wins, by its last occurrence.
    for (text, want) in [
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
    ] {
        let decoded = agrees::<Mode>(text);
        let name = from_str::<Mode>(text).ok().map(|m| match m {
            Mode::Idle => "Idle",
            Mode::Busy { .. } => "Busy",
            Mode::Parked { .. } => "Parked",
        });
        assert_eq!((decoded, name), (want.is_some(), want), "{text}");
    }
}
