//! The encoder oracle. The WAL and `serde_json::to_string` print values
//! through `Serialize::write_json`, straight from their fields; the
//! `Value` tree (`to_value`, then `Display`) is its oracle, and every type
//! the log or an export prints must give the same bytes both ways. Both
//! ways end in the same number and string printers, so those are pinned
//! as text as well.

use proptest::prelude::*;
use serde::Serialize;
use serde_json::{from_str, to_string, Value};
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

fn prints_its_tree<T: Serialize + ?Sized>(value: &T) {
    let mut out = String::new();
    value.write_json(&mut out);
    assert_eq!(out, value.to_value().to_string());
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

fn log_rows((k, n, bits): (usize, u64, usize)) {
    let float = |j: usize| FLOATS[j % FLOATS.len()];
    let text = |j: usize| STRINGS[j % STRINGS.len()];
    let maybe = |bit: usize| bits >> bit & 1 == 1;
    let job = JobId::new(DagId(n >> 24), (n & 0xff_ffff) as u32);
    let site = SiteId(n as u32);
    let at = SimTime::from_millis(n);
    let span = Duration::from_millis(n >> 3);
    prints_its_tree(&JobRow {
        id: job,
        state: JobState::VARIANTS[k % JobState::VARIANTS.len()],
        site: maybe(0).then_some(site),
        handle: maybe(1).then_some(n),
        reservation: maybe(2).then_some(u64::MAX),
        attempts: k as u32,
        submitted_at: maybe(3).then_some(at),
        exec_secs: maybe(4).then_some(float(k)),
        idle_secs: maybe(5).then_some(float(k + bits)),
    });
    prints_its_tree(&SiteStatsRow {
        site: site.0,
        completed: n,
        cancelled: k as u64,
        completion_secs_sum: float(bits),
        completion_samples: u64::MAX,
    });
    prints_its_tree(&SiteLeaseRow {
        site: site.0,
        cpu_seconds: n,
        jobs: k as u64,
    });
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
        prints_its_tree(&report);
    }
    let staging = (0..k % 3).map(|i| StagedInput {
        file: LogicalFile(text(k + i).to_owned()),
        size_mb: n,
        source: maybe(6 + i).then_some(site),
    });
    prints_its_tree(&PlanNotice {
        job,
        site,
        staging: staging.collect(),
        compute: span,
        output: FileSpec::new(text(k + 1), n),
        planned_at: at,
        archive_to: maybe(9).then_some(site),
    });
    let dag = WorkloadSpec::small(1, 1 + k as u32 % 6)
        .generate(&SimRng::new(n), 0)
        .remove(0);
    prints_its_tree(&DagRow {
        id: dag.id,
        dag: Arc::new(dag),
        user: UserId(k as u32),
        state: DagState::VARIANTS[k % DagState::VARIANTS.len()],
        submitted_at: at,
        finished_at: maybe(10).then_some(SimTime::MAX),
        deadline: maybe(11).then_some(at),
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn derived_shapes_print_their_tree(
        seed in (0usize..64, any::<u64>(), any::<i64>(), 0usize..1024)
    ) {
        prints_its_tree(&doc(seed));
    }

    #[test]
    fn log_rows_and_messages_print_their_tree(
        seed in (0usize..64, any::<u64>(), 0usize..4096)
    ) {
        log_rows(seed);
    }
}

/// What a real run leaves: every row of the server's tables, and the
/// report with its telemetry snapshot and span analysis.
#[test]
fn a_run_prints_its_tree() {
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
    prints_its_tree(&db.scan::<JobRow>().unwrap()[..]);
    prints_its_tree(&db.scan::<DagRow>().unwrap()[..]);
    prints_its_tree(&db.scan::<SiteStatsRow>().unwrap()[..]);
    prints_its_tree(&report.telemetry);
    prints_its_tree(&report);
}

#[test]
fn scalars_and_shapes_print_pinned_text() {
    for s in STRINGS {
        prints_its_tree(s);
    }
    prints_its_tree(&FLOATS[..]);
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
