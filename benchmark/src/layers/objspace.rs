//! `dsm_objspace`: twin capture, diff creation and diff application at the
//! two object sizes the workloads use — 512 B (a KV object) and 16 KB (a
//! SOR row).

use super::Rows;
use dsm_objspace::{ObjectData, Twin};
use std::hint::black_box;

/// A KV interval typically writes a few slots of an object: the sparse
/// pattern changes 3 of 64 `u64`s.
fn sparse_write(data: &mut ObjectData) {
    for slot in [5usize, 23, 50] {
        let v: u64 = data.get(slot);
        data.set(slot, v.wrapping_add(1));
    }
}

/// One SOR half-iteration changes every other `f64` of a row: the pattern
/// with the most runs a diff can have.
fn red_black_write(data: &mut ObjectData) {
    for cell in (1..data.len() / 8).step_by(2) {
        let v: u64 = data.get(cell);
        data.set(cell, v.wrapping_add(1));
    }
}

pub fn run(rows: &mut Rows) {
    let small = ObjectData::from_elements(&(0..64u64).collect::<Vec<_>>());
    let large = ObjectData::from_elements(&(0..2048u64).collect::<Vec<_>>());

    rows.batched_ns("objspace.twin_capture_ns_512", || {
        black_box(Twin::capture(black_box(&small)));
    });
    rows.batched_ns("objspace.twin_capture_ns_16k", || {
        black_box(Twin::capture(black_box(&large)));
    });

    let small_twin = Twin::capture(&small);
    let mut small_written = small.clone();
    sparse_write(&mut small_written);
    rows.batched_ns("objspace.diff_sparse_ns_512", || {
        black_box(small_twin.diff_against(black_box(&small_written)));
    });
    let large_twin = Twin::capture(&large);
    let mut large_written = large.clone();
    red_black_write(&mut large_written);
    rows.batched_ns("objspace.diff_dense_ns_16k", || {
        black_box(large_twin.diff_against(black_box(&large_written)));
    });

    let sparse = small_twin.diff_against(&small_written);
    let dense = large_twin.diff_against(&large_written);
    let mut small_home = small.clone();
    rows.batched_ns("objspace.diff_apply_ns_512", || {
        black_box(&sparse).apply(&mut small_home);
    });
    let mut large_home = large.clone();
    rows.batched_ns("objspace.diff_apply_ns_16k", || {
        black_box(&dense).apply(&mut large_home);
    });
    assert_eq!(small_home.bytes(), small_written.bytes());
    assert_eq!(large_home.bytes(), large_written.bytes());
    rows.put(
        "objspace.diff_wire_bytes_sparse",
        sparse.wire_bytes() as f64,
        1,
    );
}
