//! The encoder's checks. The WAL and `serde_json::to_string` print values
//! through `Serialize::write_json`, straight from their fields. Every type
//! the log or an export prints is held to three things:
//!
//! - the golden table (`golden/encoder.jsonl`) and the digests of a real
//!   run: what the `Value`-tree encoder, since deleted, printed for the
//!   same values, reproduced byte for byte;
//! - the text is canonical: read as a `Value`, it prints the same bytes;
//! - the text reads back as a value that prints it again.
//!
//! The number and string printers are pinned as text as well.

use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::{from_str, to_string, Number, Value};
use sphinx_core::messages::{CancelCause, PlanNotice, StatusReport};
use sphinx_core::state::{DagRow, DagState, JobRow, JobState, SiteStatsRow};
use sphinx_core::{RuntimeConfig, SiteLeaseRow, SphinxRuntime};
use sphinx_dag::{DagId, JobId, WorkloadSpec};
use sphinx_data::{FileSpec, LogicalFile, SiteId, TransferModel};
use sphinx_grid::{GridSim, SiteSpec, StagedInput};
use sphinx_policy::UserId;
use sphinx_sim::{Duration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The text `value` prints, which is canonical: what it reads as a
/// `Value` prints the same bytes.
fn prints_canonically<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    assert_eq!(from_str::<Value>(&out).unwrap().to_string(), out);
    out
}

/// [`prints_canonically`], and the text reads back as a `T` that prints
/// it again.
fn round_trips<T: Serialize + DeserializeOwned>(value: &T) -> String {
    let out = prints_canonically(value);
    assert_eq!(to_string(&from_str::<T>(&out).unwrap()).unwrap(), out);
    out
}

const STRINGS: [&str; 6] = [
    "",
    "plain",
    "quo\"te \\ back",
    "ctl\u{0}\u{8}\u{c}\u{1f}\n\r\t",
    "naïve ✓ 😀",
    "{\"looks\":[\"like\",\"json\"]}",
];

const FLOATS: [f64; 11] = [
    0.0,
    -0.0,
    1.0,
    -2.5,
    1e15 - 1.0,
    1e15,
    1e16,
    1e-9,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

// ---- every shape the derive supports ----

#[derive(Debug, Clone, Serialize)]
struct Id(u64);

#[derive(Debug, Clone, Serialize)]
enum Mode {
    Idle,
    Busy { since: i64, note: String },
}

/// Internally tagged, with members on both sides of the tag.
#[derive(Debug, Clone, Serialize)]
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

/// Members declared out of their sorted order.
#[derive(Debug, Clone, Serialize)]
struct Doc {
    zeta: Option<Vec<Option<f64>>>,
    name: String,
    alpha: (u64, i64),
    events: Vec<Event>,
    owner: Id,
    by_number: BTreeMap<u32, String>,
    raw: Value,
    shared: Arc<[Id]>,
    boxed: Box<Mode>,
}

fn doc((s, n, i, bits): (usize, u64, i64, usize)) -> Doc {
    let text = |k: usize| STRINGS[k % STRINGS.len()].to_owned();
    let float = |k: usize| FLOATS[k % FLOATS.len()];
    let big = [n, 0, u64::MAX][bits % 3];
    let small = [i, 0, -1, i64::MIN, i64::MAX][bits % 5];
    let mode = match bits & 1 {
        0 => Mode::Idle,
        _ => Mode::Busy {
            since: small,
            note: text(s + 1),
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
        shared: Arc::from([Id(n), Id(big)]),
        boxed: Box::new(mode),
    }
}

// ---- the rows and messages the log holds ----

/// The text of every row and message the log holds, for one seed.
fn log_rows((k, n, bits): (usize, u64, usize)) -> Vec<String> {
    let float = |j: usize| FLOATS[j % FLOATS.len()];
    let text = |j: usize| STRINGS[j % STRINGS.len()];
    let maybe = |bit: usize| bits >> bit & 1 == 1;
    let job = JobId::new(DagId(n >> 24), (n & 0xff_ffff) as u32);
    let site = SiteId(n as u32);
    let at = SimTime::from_millis(n);
    let span = Duration::from_millis(n >> 3);
    let mut out = Vec::new();
    out.push(round_trips(&JobRow {
        id: job,
        state: JobState::VARIANTS[k % JobState::VARIANTS.len()],
        site: maybe(0).then_some(site),
        handle: maybe(1).then_some(n),
        reservation: maybe(2).then_some(u64::MAX),
        attempts: k as u32,
        submitted_at: maybe(3).then_some(at),
        exec_secs: maybe(4).then_some(float(k)),
        idle_secs: maybe(5).then_some(float(k + bits)),
    }));
    let stats = SiteStatsRow {
        site: site.0,
        completed: n,
        cancelled: k as u64,
        completion_secs_sum: float(bits),
        completion_samples: u64::MAX,
    };
    // A non-finite float prints as `null`, which no `f64` reads.
    out.push(match float(bits).is_finite() {
        true => round_trips(&stats),
        false => prints_canonically(&stats),
    });
    out.push(round_trips(&SiteLeaseRow {
        site: site.0,
        cpu_seconds: n,
        jobs: k as u64,
    }));
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
        out.push(round_trips(&report));
    }
    let staging = (0..k % 3).map(|i| StagedInput {
        file: LogicalFile(text(k + i).to_owned()),
        size_mb: n,
        source: maybe(6 + i).then_some(site),
    });
    out.push(round_trips(&PlanNotice {
        job,
        site,
        staging: staging.collect(),
        compute: span,
        output: FileSpec::new(text(k + 1), n),
        planned_at: at,
        archive_to: maybe(9).then_some(site),
    }));
    let dag = WorkloadSpec::small(1, 1 + k as u32 % 6)
        .generate(&SimRng::new(n), 0)
        .remove(0);
    out.push(round_trips(&DagRow {
        id: dag.id,
        dag: Arc::new(dag),
        user: UserId(k as u32),
        state: DagState::VARIANTS[k % DagState::VARIANTS.len()],
        submitted_at: at,
        finished_at: maybe(10).then_some(SimTime::MAX),
        deadline: maybe(11).then_some(at),
    }));
    out
}

/// `n` prints as `{}` prints it, as every integer type that holds it, and
/// as a `Value` number.
fn prints_as_display(n: i128) {
    let shown = format!("{n}");
    let mut printed = Vec::new();
    macro_rules! each_type {
        ($($t:ty),*) => {$(
            if let Ok(n) = <$t>::try_from(n) {
                printed.push(to_string(&n).unwrap());
            }
        )*};
    }
    each_type!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
    let value = match (u64::try_from(n), i64::try_from(n)) {
        (Ok(u), _) => Value::Number(Number::U(u)),
        (_, Ok(i)) => Value::Number(Number::I(i)),
        _ => unreachable!("{n} fits neither u64 nor i64"),
    };
    printed.push(value.to_string());
    assert!(printed.len() > 1, "{n}");
    for text in printed {
        assert_eq!(text, shown);
    }
}

#[test]
fn integers_print_their_digits_at_every_length_and_at_the_extremes() {
    let mut edges: Vec<i128> = vec![0, 9, 10, 99, 100];
    edges.extend([u64::MAX, i64::MAX as u64].map(i128::from));
    edges.extend([i64::MIN, i32::MIN.into(), -1].map(i128::from));
    for k in 0..20 {
        let p = 10i128.pow(k);
        edges.extend([p - 1, p, p + 1, -p - 1, -p, 1 - p]);
    }
    for n in edges.into_iter().filter(|&n| n >= i128::from(i64::MIN)) {
        prints_as_display(n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn integers_print_as_display_prints_them(
        (u, i, shift) in (any::<u64>(), any::<i64>(), 0u32..64)
    ) {
        prints_as_display(i128::from(u >> shift));
        prints_as_display(i128::from(i >> shift));
    }

    #[test]
    fn derived_shapes_print_canonically(
        seed in (0usize..64, any::<u64>(), any::<i64>(), 0usize..1024)
    ) {
        prints_canonically(&doc(seed));
    }

    #[test]
    fn log_rows_and_messages_print_canonically_and_round_trip(
        seed in (0usize..64, any::<u64>(), 0usize..4096)
    ) {
        log_rows(seed);
    }
}

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/encoder.jsonl");

/// The texts of the golden table: every derive shape and every log row
/// and message, over fixed seeds, one text a line.
fn golden_prints() -> Vec<String> {
    let mut out = Vec::new();
    for seed in 0..32usize {
        let n = (seed as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        out.push(prints_canonically(&doc((
            seed,
            n,
            -(seed as i64) * 7919,
            seed * 37 % 1024,
        ))));
        out.extend(log_rows((seed, n >> 7, seed * 211 % 4096)));
    }
    out
}

/// Every print of the golden table, reproduced byte for byte.
#[test]
fn the_golden_table_reproduces() {
    let table = std::fs::read_to_string(GOLDEN).unwrap();
    let prints = golden_prints();
    assert_eq!(table.lines().count(), prints.len());
    for (want, got) in table.lines().zip(&prints) {
        assert_eq!(got, want);
    }
}

/// FNV-1a over `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What a real run leaves: every row of the server's tables, and the
/// report with its telemetry snapshot and span analysis.
#[test]
fn a_run_prints_what_the_tree_printed() {
    let specs = (0..3)
        .map(|i| SiteSpec::new(SiteId(i), format!("site{i}"), 4))
        .collect();
    let mut grid = GridSim::new(specs, TransferModel::default(), 5);
    let dags = WorkloadSpec::small(3, 8).generate(&SimRng::new(5), 0);
    for file in dags.iter().flat_map(|dag| dag.external_inputs()) {
        grid.rls_mut().register(file, SiteId(0));
    }
    let mut rt = SphinxRuntime::new(grid, RuntimeConfig::default());
    for dag in &dags {
        rt.submit_dag(dag, UserId(1));
    }
    let report = rt.run();
    assert!(report.finished, "{}", report.summary());
    let db = rt.server().database();
    let digests = [
        fnv1a(&round_trips(&db.scan::<JobRow>().unwrap())),
        fnv1a(&round_trips(&db.scan::<DagRow>().unwrap())),
        fnv1a(&round_trips(&db.scan::<SiteStatsRow>().unwrap())),
        fnv1a(&round_trips(&report.telemetry)),
        fnv1a(&round_trips(&report)),
    ];
    // What the tree printed for this run.
    assert_eq!(
        digests,
        [
            0x367b_e175_d757_ef00,
            0x77cb_828c_3ac6_9be5,
            0x70ab_e74f_5a50_b33b,
            0x8c2a_de6d_3df9_abcd,
            0x40c4_5886_b57b_c2f2,
        ]
    );
}

#[test]
fn scalars_and_shapes_print_pinned_text() {
    for s in STRINGS {
        round_trips(&s.to_owned());
    }
    prints_canonically(&FLOATS[..]);
    assert_eq!(
        to_string(&FLOATS[..]).unwrap(),
        "[0.0,-0.0,1.0,-2.5,999999999999999.0,1000000000000000,10000000000000000,\
         0.000000001,null,null,null]"
    );
    assert_eq!(
        to_string(&(i64::MIN, u64::MAX)).unwrap(),
        "[-9223372036854775808,18446744073709551615]"
    );
    assert_eq!(
        to_string(STRINGS[3]).unwrap(),
        r#""ctl\u0000\b\f\u001f\n\r\t""#
    );
    let numbers = BTreeMap::from([(7u32, "seven"), (10, "ten")]);
    assert_eq!(to_string(&numbers).unwrap(), r#"{"10":"ten","7":"seven"}"#);
    let event = Event::MovedTo {
        zone: Some(vec![Id(3)]),
        at: 2.0,
        mode: Mode::Busy {
            since: -4,
            note: "n".into(),
        },
        kindly: true,
    };
    assert_eq!(
        to_string(&[Event::Tick, event][..]).unwrap(),
        r#"[{"kind":"tick"},{"at":2.0,"kind":"moved_to","kindly":true,"mode":{"Busy":{"note":"n","since":-4}},"zone":[3]}]"#
    );
}
