//! Example 2.1 / Figure 1 of the paper, reproduced exactly.
//!
//! Source S1 has separate home/office phone and address columns; source S2
//! uses the ambiguous labels `phone` and `address`. A probabilistic mediated
//! schema holds both plausible clusterings (M3 attaches `phone` to the home
//! side, M4 to the office side), and by-table query answering returns all
//! four (phone, address) pairings with the Figure 1(c) probabilities —
//! favoring the correctly correlated pairs (0.34 each) over the crossed
//! ones (0.16 each).
//!
//! ```sh
//! cargo run --release --example people_ambiguity
//! ```

use udi::core::UdiSystem;
use udi::query::parse_query;
use udi::schema::{AttrId, Mapping, MediatedSchema, PMapping, PMedSchema};
use udi::store::{Catalog, Table};

fn main() {
    let mut catalog = Catalog::new();
    let mut s1 = Table::new("S1", ["name", "hPhone", "hAddr", "oPhone", "oAddr"]);
    s1.push_raw_row([
        "Alice",
        "123-4567",
        "123, A Ave.",
        "765-4321",
        "456, B Ave.",
    ])
    .unwrap();
    let mut s2 = Table::new("S2", ["name", "phone", "address"]);
    s2.push_raw_row(["Bob", "555-1234", "789, C Ave."]).unwrap();
    catalog.add_source(s1).unwrap();
    catalog.add_source(s2).unwrap();

    // Vocabulary ids follow first appearance: name=0, hPhone=1, hAddr=2,
    // oPhone=3, oAddr=4, phone=5, address=6.
    let (name, h_p, h_a, o_p, o_a, phone, addr) = (
        AttrId(0),
        AttrId(1),
        AttrId(2),
        AttrId(3),
        AttrId(4),
        AttrId(5),
        AttrId(6),
    );

    // M3 = ({name}, {phone, hP}, {oP}, {address, hA}, {oA});
    // M4 = ({name}, {phone, oP}, {hP}, {address, oA}, {hA}); each 0.5.
    let m3 = MediatedSchema::from_slices(&[&[name], &[phone, h_p], &[o_p], &[addr, h_a], &[o_a]]);
    let m4 = MediatedSchema::from_slices(&[&[name], &[phone, o_p], &[h_p], &[addr, o_a], &[h_a]]);
    let pmed = PMedSchema::new(vec![(m3.clone(), 0.5), (m4.clone(), 0.5)]);

    // Figure 1(a)/(b): the p-mappings between S1 and M3/M4. The 0.64/0.16/
    // 0.16/0.04 distribution is the max-entropy product of two independent
    // 0.8/0.2 choices (which phone and which address fill the shared
    // clusters).
    let mapping = |med: &MediatedSchema, pairs: &[(AttrId, AttrId)]| {
        Mapping::new(
            pairs
                .iter()
                .map(|&(src, clusterer)| (src, med.cluster_of(clusterer).unwrap())),
        )
    };
    let pm_s1 =
        |med: &MediatedSchema, this: AttrId, other: AttrId, this_a: AttrId, other_a: AttrId| {
            PMapping::new(vec![
                (
                    mapping(
                        med,
                        &[
                            (name, name),
                            (this, phone),
                            (other, other),
                            (this_a, addr),
                            (other_a, other_a),
                        ],
                    ),
                    0.64,
                ),
                (
                    mapping(
                        med,
                        &[
                            (name, name),
                            (this, phone),
                            (other, other),
                            (other_a, addr),
                            (this_a, other_a),
                        ],
                    ),
                    0.16,
                ),
                (
                    mapping(
                        med,
                        &[
                            (name, name),
                            (other, phone),
                            (this, other),
                            (this_a, addr),
                            (other_a, other_a),
                        ],
                    ),
                    0.16,
                ),
                (
                    mapping(
                        med,
                        &[
                            (name, name),
                            (other, phone),
                            (this, other),
                            (other_a, addr),
                            (this_a, other_a),
                        ],
                    ),
                    0.04,
                ),
            ])
        };
    let pm_s1_m3 = pm_s1(&m3, h_p, o_p, h_a, o_a);
    let pm_s1_m4 = pm_s1(&m4, o_p, h_p, o_a, h_a);

    let id_mapping = |med: &MediatedSchema| {
        Mapping::new([
            (name, med.cluster_of(name).unwrap()),
            (phone, med.cluster_of(phone).unwrap()),
            (addr, med.cluster_of(addr).unwrap()),
        ])
    };
    let pm_s2_m3 = PMapping::new(vec![(id_mapping(&m3), 1.0)]);
    let pm_s2_m4 = PMapping::new(vec![(id_mapping(&m4), 1.0)]);

    let udi = UdiSystem::from_parts(
        catalog,
        pmed,
        vec![vec![pm_s1_m3, pm_s1_m4], vec![pm_s2_m3, pm_s2_m4]],
    )
    .expect("assemble");

    println!("Consolidated mediated schema:");
    for (rep, members) in udi.exposed_schema() {
        println!("  {rep:<10} = {{{}}}", members.join(", "));
    }

    let q = parse_query("SELECT name, phone, address FROM People").unwrap();
    println!("\n{q}  — Figure 1(c):");
    for t in udi.answer(&q).combined() {
        let row: Vec<String> = t.values.iter().map(ToString::to_string).collect();
        println!("  p={:.2}  ({})", t.probability, row.join(", "));
    }
    println!(
        "\nThe correctly correlated (home, home) and (office, office) pairs rank \
         at 0.34; the crossed pairs fall to 0.16 — the benefit of keeping BOTH \
         M3 and M4 instead of committing to either."
    );
}
