//! Golden `rds sweep`, `rds resilience` and `rds serve` runs: the
//! printed table and the journal bytes of fixed seeded campaigns. The sweeps cover one or
//! more routes the exact solver takes for the ratio denominator:
//!
//! - n = 12, m = 8: the subset DP proves the optimum;
//! - n = 30, m = 8: branch-and-bound, whose node budget runs out, so an
//!   unproven incumbent caps the dual-approximation lower bound;
//! - n = 41 and up: the MULTIFIT / dual-approximation bracket, under two
//!   realization models.
//!
//! The resilience campaigns cover two plain runs, the validator and
//! stragglers. The serve runs cover the CI stream, which
//! sheds; injected failures, which write `done`, `shed` and `failed`
//! records and retry; and bursty arrivals, which degrade, shed and
//! reject.
//!
//! Every journal record stores the makespan and its baseline by value,
//! so a digest mismatch means some ratio denominator (or makespan) moved
//! by even one bit. The constants are the command's reference output;
//! they must not be re-recorded to absorb a change that was meant to be
//! behavior-preserving.

/// FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Runs `rds <command> <args> --journal <tmp>` in process and returns
/// the table lines and the FNV-1a digest of the journal bytes.
fn campaign(command: &str, tag: &str, args: &str) -> (Vec<String>, u64) {
    let dir =
        std::env::temp_dir().join(format!("rds-golden-{}-{command}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("campaign.journal");
    let mut argv: Vec<String> = std::iter::once(command)
        .chain(args.split_whitespace())
        .map(str::to_string)
        .collect();
    argv.extend(["--journal".to_string(), journal.display().to_string()]);
    let mut out = Vec::new();
    rds_cli::run(&argv, &mut out).unwrap_or_else(|e| panic!("rds {args}: {e}"));
    let table = String::from_utf8(out)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with('|'))
        .map(str::to_string)
        .collect();
    let digest = fnv1a(&std::fs::read(&journal).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    (table, digest)
}

/// `(arguments, table lines, journal digest)`.
type Golden = &'static [(&'static str, &'static [&'static str], u64)];

/// Runs every case of `golden` under `command` and lists the mismatches.
fn mismatches(command: &str, golden: Golden) -> Vec<String> {
    let mut out = Vec::new();
    for (i, &(args, table, digest)) in golden.iter().enumerate() {
        let (got_table, got_digest) = campaign(command, &i.to_string(), args);
        if got_table != table || got_digest != digest {
            out.push(format!(
                "{command} {args:?}: want {table:#?} {digest:#018x}, got {got_table:#?} {got_digest:#018x}"
            ));
        }
    }
    out
}

#[rustfmt::skip]
const GOLDEN: Golden = &[
    ("--m 8 --n 12 --reps 6 --seed 5", &[
        "| policy             | replicas | runs | mean ratio | worst ratio |",
        "| ------------------ | --------:| ----:| ----------:| -----------:|",
        "| LPT-No Choice      |        1 |    6 |     1.0000 |      1.0000 |",
        "| Chained(k=2)       |        2 |    6 |     1.0000 |      1.0000 |",
        "| Chained(k=3)       |        3 |    6 |     1.0000 |      1.0000 |",
        "| LS-Group(k=2)      |        4 |    6 |     1.0193 |      1.0619 |",
        "| LPT-No Restriction |        8 |    6 |     1.0000 |      1.0000 |",
    ], 0x1d35f1bfd4cf33b9),
    ("--m 8 --n 30 --reps 2 --seed 5", &[
        "| policy             | replicas | runs | mean ratio | worst ratio |",
        "| ------------------ | --------:| ----:| ----------:| -----------:|",
        "| LPT-No Choice      |        1 |    2 |     1.1987 |      1.2480 |",
        "| Chained(k=2)       |        2 |    2 |     1.1404 |      1.1804 |",
        "| Chained(k=3)       |        3 |    2 |     1.1315 |      1.1331 |",
        "| LS-Group(k=2)      |        4 |    2 |     1.0709 |      1.0879 |",
        "| LPT-No Restriction |        8 |    2 |     1.0373 |      1.0432 |",
    ], 0x33987e731aa813f5),
    ("--m 8 --n 41 --reps 6 --seed 5", &[
        "| policy             | replicas | runs | mean ratio | worst ratio |",
        "| ------------------ | --------:| ----:| ----------:| -----------:|",
        "| LPT-No Choice      |        1 |    6 |     1.1655 |      1.2649 |",
        "| Chained(k=2)       |        2 |    6 |     1.0741 |      1.1239 |",
        "| Chained(k=3)       |        3 |    6 |     1.0485 |      1.0922 |",
        "| LS-Group(k=2)      |        4 |    6 |     1.0489 |      1.0653 |",
        "| LPT-No Restriction |        8 |    6 |     1.0247 |      1.0308 |",
    ], 0x6c8c44c6c24e64e3),
    ("--m 64 --n 1000 --reps 4 --seed 3 --model two-point", &[
        "| policy             | replicas | runs | mean ratio | worst ratio |",
        "| ------------------ | --------:| ----:| ----------:| -----------:|",
        "| LPT-No Choice      |        1 |    4 |     1.2802 |      1.3169 |",
        "| Chained(k=2)       |        2 |    4 |     1.0713 |      1.0831 |",
        "| Chained(k=3)       |        3 |    4 |     1.0464 |      1.0658 |",
        "| LS-Group(k=21)     |        4 |    4 |     1.1748 |      1.2239 |",
        "| LPT-No Restriction |       64 |    4 |     1.0117 |      1.0124 |",
    ], 0xc5ed5ec9d1174ef5),
    ("--m 64 --n 50 --reps 4 --seed 3", &[
        "| policy             | replicas | runs | mean ratio | worst ratio |",
        "| ------------------ | --------:| ----:| ----------:| -----------:|",
        "| LPT-No Choice      |        1 |    4 |     1.0000 |      1.0000 |",
        "| Chained(k=2)       |        2 |    4 |     1.0000 |      1.0000 |",
        "| Chained(k=3)       |        3 |    4 |     1.0000 |      1.0000 |",
        "| LS-Group(k=21)     |        4 |    4 |     1.0000 |      1.0000 |",
        "| LPT-No Restriction |       64 |    4 |     1.0000 |      1.0000 |",
    ], 0xa398486335cf9a71),
    ("--m 64 --n 1000 --reps 5 --seed 7", &[
        "| policy             | replicas | runs | mean ratio | worst ratio |",
        "| ------------------ | --------:| ----:| ----------:| -----------:|",
        "| LPT-No Choice      |        1 |    5 |     1.1499 |      1.1664 |",
        "| Chained(k=2)       |        2 |    5 |     1.0439 |      1.0509 |",
        "| Chained(k=3)       |        3 |    5 |     1.0257 |      1.0320 |",
        "| LS-Group(k=21)     |        4 |    5 |     1.0831 |      1.1180 |",
        "| LPT-No Restriction |       64 |    5 |     1.0086 |      1.0100 |",
    ], 0x450cc70fc93582c4),
];

#[rustfmt::skip]
const RESILIENCE: Golden = &[
    ("--m 8 --n 40 --mtbf 30 --reps 4 --seed 5", &[
        "| policy             | replicas | survival rate | completed runs | mean restarts | mean wasted work | spec wins | mean degradation | worst degradation |",
        "| ------------------ | --------:| -------------:| --------------:| -------------:| ----------------:| ---------:| ----------------:| -----------------:|",
        "| LPT-No Choice      |        1 |         0.787 |            0/4 |          6.25 |            28.20 |      0.00 |                - |                 - |",
        "| Chained(k=2)       |        2 |         0.887 |            1/4 |          7.75 |            30.58 |      0.00 |            1.419 |             1.419 |",
        "| Chained(k=3)       |        3 |         0.994 |            3/4 |          8.00 |            30.92 |      0.00 |            2.054 |             2.416 |",
        "| LS-Group(k=2)      |        4 |         1.000 |            4/4 |          7.75 |            36.09 |      0.00 |            2.909 |             3.894 |",
        "| LPT-No Restriction |        8 |         1.000 |            4/4 |          8.25 |            33.22 |      0.00 |            1.768 |             2.067 |",
    ], 0xb198c04f423a87fb),
    ("--m 8 --n 40 --mtbf 30 --reps 5 --seed 7", &[
        "| policy             | replicas | survival rate | completed runs | mean restarts | mean wasted work | spec wins | mean degradation | worst degradation |",
        "| ------------------ | --------:| -------------:| --------------:| -------------:| ----------------:| ---------:| ----------------:| -----------------:|",
        "| LPT-No Choice      |        1 |         0.920 |            1/5 |          4.00 |            14.92 |      0.00 |            1.532 |             1.532 |",
        "| Chained(k=2)       |        2 |         0.960 |            3/5 |          4.80 |            20.05 |      0.00 |            1.469 |             1.792 |",
        "| Chained(k=3)       |        3 |         1.000 |            5/5 |          5.60 |            20.53 |      0.00 |            1.432 |             1.774 |",
        "| LS-Group(k=2)      |        4 |         1.000 |            5/5 |          5.20 |            18.53 |      0.00 |            1.569 |             2.184 |",
        "| LPT-No Restriction |        8 |         1.000 |            5/5 |          5.40 |            20.95 |      0.00 |            1.338 |             1.623 |",
    ], 0xcc5300c155af8457),
    ("--m 6 --n 30 --mtbf 20 --reps 3 --seed 9 --validate", &[
        "| policy             | replicas | survival rate | completed runs | mean restarts | mean wasted work | spec wins | mean degradation | worst degradation |",
        "| ------------------ | --------:| -------------:| --------------:| -------------:| ----------------:| ---------:| ----------------:| -----------------:|",
        "| LPT-No Choice      |        1 |         0.844 |            0/3 |          4.67 |            19.30 |      0.00 |                - |                 - |",
        "| Chained(k=2)       |        2 |         1.000 |            3/3 |          5.00 |            20.43 |      0.00 |            1.585 |             2.118 |",
        "| Chained(k=3)       |        3 |         1.000 |            3/3 |          5.67 |            22.17 |      0.00 |            1.425 |             1.610 |",
        "| LS-Group(k=2)      |        3 |         1.000 |            3/3 |          5.00 |            15.51 |      0.00 |            1.353 |             1.601 |",
        "| LPT-No Restriction |        6 |         1.000 |            3/3 |          6.00 |            20.00 |      0.00 |            1.409 |             1.585 |",
    ], 0xb392dda24af1a80f),
    ("--m 8 --n 40 --mtbf 40 --reps 3 --seed 11 --stragglers 0.1", &[
        "| policy             | replicas | survival rate | completed runs | mean restarts | mean wasted work | spec wins | mean degradation | worst degradation |",
        "| ------------------ | --------:| -------------:| --------------:| -------------:| ----------------:| ---------:| ----------------:| -----------------:|",
        "| LPT-No Choice      |        1 |         0.900 |            1/3 |          5.33 |            41.20 |      0.00 |            2.616 |             2.616 |",
        "| Chained(k=2)       |        2 |         0.983 |            2/3 |          5.00 |            42.64 |      0.00 |            1.939 |             2.471 |",
        "| Chained(k=3)       |        3 |         1.000 |            3/3 |          5.67 |            41.79 |      0.00 |            2.101 |             2.698 |",
        "| LS-Group(k=2)      |        4 |         1.000 |            3/3 |          4.67 |            35.84 |      0.00 |            2.023 |             3.253 |",
        "| LPT-No Restriction |        8 |         1.000 |            3/3 |          5.33 |            46.20 |      0.33 |            2.093 |             3.309 |",
    ], 0xa8f47705f405fcbb),
];

#[rustfmt::skip]
const SERVE: Golden = &[
    ("--m 6 --k 2 --tasks 4000 --rate 8.0 --alpha 1.6 --seed 11 --fsync-every 16", &[
        "| outcome               | count |",
        "| --------------------- | -----:|",
        "| admitted              |  3980 |",
        "| completed             |  3355 |",
        "| shed (deadline)       |   625 |",
        "| failed (retries)      |     0 |",
        "| rejected: queue full  |     0 |",
        "| rejected: deadline    |    20 |",
        "| rejected: draining    |     0 |",
        "| retries               |     0 |",
        "| degraded-k admissions |     1 |",
        "| overload transitions  |    12 |",
        "| max queue depth       |   768 |",
        "| metric    | count | mean   | p50    | p95     | p99     | max     |",
        "| --------- | -----:| ------:| ------:| -------:| -------:| -------:|",
        "| wait time |  3355 | 72.258 | 77.999 | 124.095 | 136.147 | 148.636 |",
        "| flow time |  3355 | 73.378 | 79.070 | 125.109 | 137.575 | 149.852 |",
    ], 0xf8e041eb2c9d5e01),
    ("--m 4 --k 2 --tasks 3000 --rate 6 --fail-rate 0.2 --seed 9", &[
        "| outcome               | count |",
        "| --------------------- | -----:|",
        "| admitted              |  2975 |",
        "| completed             |  2201 |",
        "| shed (deadline)       |   763 |",
        "| failed (retries)      |    11 |",
        "| rejected: queue full  |     0 |",
        "| rejected: deadline    |    25 |",
        "| rejected: draining    |     0 |",
        "| retries               |   554 |",
        "| degraded-k admissions |     1 |",
        "| overload transitions  |    14 |",
        "| max queue depth       |   768 |",
        "| metric    | count | mean    | p50     | p95     | p99     | max     |",
        "| --------- | -----:| -------:| -------:| -------:| -------:| -------:|",
        "| wait time |  2290 | 101.553 |  96.753 | 194.610 | 208.074 | 214.094 |",
        "| flow time |  2201 | 121.521 | 103.469 | 272.646 | 354.133 | 415.291 |",
    ], 0x8364dfdb021ae877),
    ("--m 8 --tasks 8000 --rate 12 --arrivals bursty --seed 5 --fsync-every 7", &[
        "| outcome               | count |",
        "| --------------------- | -----:|",
        "| admitted              |  4919 |",
        "| completed             |  3428 |",
        "| shed (deadline)       |  1491 |",
        "| failed (retries)      |     0 |",
        "| rejected: queue full  |     0 |",
        "| rejected: deadline    |  3081 |",
        "| rejected: draining    |     0 |",
        "| retries               |     0 |",
        "| degraded-k admissions |     1 |",
        "| overload transitions  |    34 |",
        "| max queue depth       |   768 |",
        "| metric    | count | mean   | p50    | p95    | p99    | max     |",
        "| --------- | -----:| ------:| ------:| ------:| ------:| -------:|",
        "| wait time |  3428 | 60.335 | 62.372 | 83.417 | 95.540 | 102.502 |",
        "| flow time |  3428 | 61.482 | 63.579 | 84.406 | 96.755 | 103.248 |",
    ], 0xcf27823c3faf802d),
];

#[test]
fn sweep_tables_and_journals_are_byte_identical_to_golden() {
    let bad = mismatches("sweep", GOLDEN);
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn resilience_tables_and_journals_are_byte_identical_to_golden() {
    let bad = mismatches("resilience", RESILIENCE);
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn serve_tables_and_journals_are_byte_identical_to_golden() {
    let bad = mismatches("serve", SERVE);
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}
