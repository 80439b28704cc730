//! Golden pin of `reproduce all`, plus closed-form cross-checks of the
//! paper's tables it prints.
//!
//! `tests/golden/reproduce_all.txt` is the byte-exact output of
//! `cargo run --release -p otis-bench --bin reproduce -- all`.  The first
//! test rebuilds that text from `run_experiment` for every id, in the
//! binary's order and with its banners, so any drift in a figure or table
//! names the experiment that moved.  The other tests read the numbers in the
//! golden tables and check them against the paper's closed forms: Kautz
//! order and diameter (T1), the Imase–Itoh diameter bound (T2), single-hop
//! POPS, stack-Kautz coupler, group, OTIS-unit and lens counts (Fig. 7, T3)
//! and the routing and fault bounds (T4).  Together they pin the code to the text and the
//! text to the mathematics.

use otis_bench::{available_experiments, experiment_banner, run_experiment};

const GOLDEN: &str = include_str!("../../../tests/golden/reproduce_all.txt");

/// The report of experiment `id` as the golden records it, without the
/// blank line `reproduce all` prints after each report.
fn report(id: &str) -> &'static str {
    let experiments = available_experiments();
    let pos = experiments
        .iter()
        .position(|&(i, _)| i == id)
        .unwrap_or_else(|| panic!("unknown experiment {id}"));
    let (_, description) = experiments[pos];
    let banner = experiment_banner(id, description);
    let start = GOLDEN.find(&banner).expect("banner in golden") + banner.len();
    let end = experiments.get(pos + 1).map_or(GOLDEN.len(), |&(next, d)| {
        GOLDEN
            .find(&experiment_banner(next, d))
            .expect("banner in golden")
    });
    GOLDEN[start..end]
        .strip_suffix('\n')
        .expect("reports end in a blank line")
}

/// The integer parameters of a spec name: `"SK(6,3,2)"` → `[6, 3, 2]`.
fn params(name: &str) -> Vec<usize> {
    let inner = &name[name.find('(').expect("spec name") + 1..name.find(')').expect("spec name")];
    inner.split(',').map(|p| p.parse().unwrap()).collect()
}

/// Whitespace-separated columns of every line of `text` that starts with
/// `prefix`.
fn rows<'a>(text: &'a str, prefix: &'a str) -> impl Iterator<Item = Vec<&'a str>> + 'a {
    text.lines()
        .filter(move |l| l.starts_with(prefix))
        .map(|l| l.split_whitespace().collect())
}

fn num(col: &str) -> usize {
    col.parse()
        .unwrap_or_else(|_| panic!("'{col}' is not a count"))
}

/// Nodes of `KG(d, k)`: `d^k + d^(k-1)`.
fn kautz_order(d: usize, k: u32) -> usize {
    d.pow(k) + d.pow(k - 1)
}

/// `⌈log_d n⌉`, the Imase–Itoh diameter bound.
fn ceil_log(d: usize, n: usize) -> usize {
    let (mut t, mut reach) = (0, 1);
    while reach < n {
        reach *= d;
        t += 1;
    }
    t
}

/// The value after `label` on `line`, up to the next space, comma or
/// closing parenthesis.
fn field<'a>(line: &'a str, label: &str) -> &'a str {
    let rest = &line[line
        .find(label)
        .unwrap_or_else(|| panic!("'{label}' in {line}"))
        + label.len()..];
    rest.split([' ', ',', ')']).next().unwrap()
}

/// The bracketed list of counts on `line`.
fn field_list(line: &str) -> impl Iterator<Item = usize> + '_ {
    let start = line.find('[').expect("histogram") + 1;
    let end = line.find(']').expect("histogram");
    line[start..end].split(", ").map(num)
}

#[test]
fn reproduce_all_matches_golden() {
    let mut rest = GOLDEN;
    for (id, description) in available_experiments() {
        let section = format!(
            "{}{}\n",
            experiment_banner(id, description),
            run_experiment(id)
        );
        assert!(
            rest.starts_with(&section),
            "`reproduce {id}` drifted from tests/golden/reproduce_all.txt"
        );
        rest = &rest[section.len()..];
    }
    assert!(rest.is_empty(), "golden has text after the last experiment");
}

#[test]
fn t1_kautz_rows_have_closed_form_order_and_diameter() {
    let table = report("table-kautz");
    let mut count = 0;
    for row in rows(table, "KG(").chain(rows(report("fig6"), "KG(2,")) {
        if row.len() < 6 {
            continue; // "KG(2,1) equals K_3: true"
        }
        let p = params(row[0]);
        let (d, k) = (p[0], p[1] as u32);
        let n = kautz_order(d, k);
        assert_eq!(num(row[1]), n, "{} order", row[0]);
        assert_eq!(num(row[2]), n * d, "{} arcs", row[0]);
        assert_eq!(num(row[3]), d, "{} degree", row[0]);
        assert_eq!(num(row[4]), k as usize, "{} diameter", row[0]);
        assert_eq!(num(row[5]), k as usize, "{} predicted diameter", row[0]);
        count += 1;
    }
    assert_eq!(count, 8 + 3, "T1 rows plus Fig. 6 rows");
    assert!(table.contains(&format!("KG(5,4) = {} nodes", kautz_order(5, 4))));
    assert_eq!(kautz_order(5, 5), 3750, "the paper's 3750 is KG(5,5)");
}

#[test]
fn t2_imase_itoh_diameters_stay_within_log_bound() {
    let table = report("table-ii");
    let mut count = 0;
    for row in rows(table, "II(").filter(|r| r.len() == 8) {
        let p = params(row[0]);
        let (d, n) = (p[0], p[1]);
        let bound = ceil_log(d, n);
        assert_eq!(num(row[1]), n, "{} order", row[0]);
        assert_eq!(num(row[2]), n * d, "{} arcs", row[0]);
        assert_eq!(num(row[7]), bound, "{} bound column", row[0]);
        assert!(num(row[4]) <= bound, "{} exceeds ceil(log_d n)", row[0]);
        count += 1;
    }
    assert_eq!(count, 9);
    // The II = KG identification lines name the Kautz order.
    for line in table.lines().filter(|l| l.contains("isomorphic to KG")) {
        let words: Vec<&str> = line.split_whitespace().collect();
        let (ii, kg) = (params(words[0]), params(words[3].trim_end_matches(':')));
        assert_eq!((ii[0], ii[1]), (kg[0], kautz_order(kg[0], kg[1] as u32)));
        assert!(line.ends_with(": true"), "{line}");
    }
}

#[test]
fn corollary_1_lines_name_kautz_orders() {
    let lines: Vec<&str> = report("cor1").lines().skip(1).collect();
    assert_eq!(lines.len(), 6);
    for line in lines {
        let words: Vec<&str> = line.split_whitespace().collect();
        let (kg, ii) = (params(words[0]), params(words[2].trim_end_matches(':')));
        assert_eq!((ii[0], ii[1]), (kg[0], kautz_order(kg[0], kg[1] as u32)));
        assert!(line.ends_with("verified = true, isomorphic to word construction = true"));
    }
}

#[test]
fn pops_is_single_hop_with_g_squared_couplers() {
    assert!(report("fig4").contains("single-hop (diameter Some(1))"));
    let fig5: Vec<_> = rows(report("fig5"), "POPS(4,2) ").collect();
    assert_eq!(fig5.len(), 1);
    assert_eq!(num(fig5[0][4]), 1, "POPS(4,2) diameter");
    // T5: every POPS message takes exactly one hop.
    let sim = report("table-sim");
    let uniform: Vec<_> = rows(sim, "POPS(4,6)  ").filter(|r| r.len() == 7).collect();
    assert_eq!(uniform.len(), 4);
    assert!(uniform.iter().all(|r| r[6] == "1.00"));
    let mixed: Vec<_> = rows(sim, "POPS(4,6)").filter(|r| r.len() == 11).collect();
    assert_eq!(mixed.len(), 3);
    assert!(mixed.iter().all(|r| r[8] == "1.00" && r[9] == "1"));
    // T3: POPS(t, g) has t·g processors, g² couplers, g transceiver pairs
    // per processor, 2g + 1 OTIS units and 4tg² + 2g² lenses.
    let cost: Vec<_> = rows(report("table-cost"), "POPS(").collect();
    assert_eq!(cost.len(), 4);
    for row in cost {
        let p = params(row[0]);
        let (t, g) = (p[0], p[1]);
        assert_eq!(num(row[1]), t * g, "{} processors", row[0]);
        assert_eq!(num(row[2]), g * g, "{} couplers", row[0]);
        assert_eq!(num(row[3]), 2 * g + 1, "{} OTIS units", row[0]);
        assert_eq!(num(row[4]), 4 * t * g * g + 2 * g * g, "{} lenses", row[0]);
        assert_eq!(num(row[5]), t * g * g, "{} transmitters", row[0]);
        assert_eq!(num(row[6]), t * g * g, "{} receivers", row[0]);
    }
}

#[test]
fn stack_kautz_coupler_and_group_counts_match_closed_forms() {
    // SK(s, d, k): g = d^(k-1)(d+1) groups of s processors, g(d+1)
    // couplers (the arcs of KG⁺(d, k), loops included), d+1 transceiver
    // pairs per processor, diameter k.
    let groups = |d: usize, k: usize| kautz_order(d, k as u32);
    let fig7 = report("fig7");
    let head = fig7.lines().nth(1).unwrap();
    assert_eq!(field(head, "processors: "), "72");
    assert_eq!(field(head, "("), groups(3, 2).to_string());
    assert_eq!(field(head, "groups of "), "6");
    assert_eq!(field(head, "node degree "), "4");
    assert_eq!(field(head, "couplers "), (groups(3, 2) * 4).to_string());
    let mut count = 0;
    for row in rows(fig7, "SK(") {
        let p = params(row[0]);
        let (s, d, k) = (p[0], p[1], p[2]);
        let g = groups(d, k);
        assert_eq!(num(row[1]), s * g, "{} processors", row[0]);
        assert_eq!(num(row[2]), g * (d + 1), "{} couplers", row[0]);
        assert_eq!(num(row[3]), d + 1, "{} degree", row[0]);
        assert_eq!(num(row[4]), k, "{} diameter", row[0]);
        count += 1;
    }
    assert_eq!(count, 4);

    // T3 adds 2g + 1 OTIS units and 4s(d+1)g + 2dg lenses.
    let cost = report("table-cost");
    let sk: Vec<_> = rows(cost, "SK(").collect();
    assert_eq!(sk.len(), 4);
    for row in sk {
        let p = params(row[0]);
        let (s, d, k) = (p[0], p[1], p[2]);
        let g = groups(d, k);
        assert_eq!(num(row[1]), s * g, "{} processors", row[0]);
        assert_eq!(num(row[2]), g * (d + 1), "{} couplers", row[0]);
        assert_eq!(num(row[3]), 2 * g + 1, "{} OTIS units", row[0]);
        assert_eq!(
            num(row[4]),
            4 * s * (d + 1) * g + 2 * d * g,
            "{} lenses",
            row[0]
        );
        assert_eq!(num(row[5]), s * g * (d + 1), "{} transmitters", row[0]);
        assert_eq!(num(row[6]), s * g * (d + 1), "{} receivers", row[0]);
    }

    // The scaling comparison at s = 8: N = 8g, POPS needs g² couplers and
    // g transceiver pairs per processor, SK needs g(d+1) and d+1 with g a
    // Kautz order of degree d.
    let scaling = cost
        .lines()
        .skip_while(|l| !l.starts_with("groups g"))
        .skip(1)
        .take_while(|l| !l.is_empty());
    let mut count = 0;
    for line in scaling {
        let c: Vec<usize> = line.split_whitespace().map(num).collect();
        let (g, d) = (c[0], c[5] - 1);
        assert_eq!(c[1], 8 * g, "N at g = {g}");
        assert_eq!(c[2], g * g, "POPS couplers at g = {g}");
        assert_eq!(c[3], g * (d + 1), "SK couplers at g = {g}");
        assert_eq!(c[4], g, "POPS transceivers at g = {g}");
        assert!(
            (1..8).any(|k| groups(d, k) == g),
            "g = {g} is no Kautz order of degree {d}"
        );
        count += 1;
    }
    assert_eq!(count, 5);
}

#[test]
fn t4_routes_stay_within_k_and_the_k_plus_2_fault_bound() {
    let table = report("table-routing");
    let mut label = 0;
    for line in table.lines().filter(|l| l.contains("label-routing")) {
        let p = params(line.trim_start());
        let (d, k) = (p[0], p[1]);
        let n = kautz_order(d, k as u32);
        assert_eq!(field(line, "(all "), (n * n).to_string());
        let hist: Vec<usize> = field_list(line).collect();
        assert_eq!(hist.len(), k + 1, "{line}: max length is k");
        assert_eq!(hist[0], n, "{line}: one empty route per node");
        assert_eq!(hist.iter().sum::<usize>(), n * n);
        label += 1;
    }
    assert_eq!(label, 3);
    let mut arithmetic = 0;
    for line in table.lines().filter(|l| l.contains("arithmetic routing")) {
        let p = params(line.trim_start());
        let bound = ceil_log(p[0], p[1]);
        assert_eq!(field(line, "(bound "), bound.to_string());
        assert!(num(field(line, "max ")) <= bound, "{line}");
        arithmetic += 1;
    }
    assert_eq!(arithmetic, 3);
    let faults = table.lines().filter(|l| l.contains("node faults")).chain(
        report("table-sim")
            .lines()
            .filter(|l| l.starts_with("worst delivered route")),
    );
    let mut fault_lines = 0;
    for line in faults {
        // Every fault line here is on a network of Kautz diameter k = 2.
        assert_eq!(field(line, "(bound k+2 = "), "4");
        let worst = line
            .split(" hops")
            .next()
            .and_then(|l| l.rsplit(' ').next())
            .map(num)
            .unwrap();
        assert!(worst <= 4, "{line}");
        assert!(line.contains("claim holds"), "{line}");
        assert!(!line.contains("claim holds: false"), "{line}");
        fault_lines += 1;
    }
    assert_eq!(fault_lines, 3);
}
