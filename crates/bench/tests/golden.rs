//! Every committed modeled output, checked inside tier-1: each entry of
//! `dsm_bench::figures::REGISTRY` is rendered in-process, its claims must
//! hold, and its text must equal `bench/figures/small/NAME.txt` byte for
//! byte. A claim is checked before the bytes, so regenerating a file cannot
//! bless a broken claim.

use dsm_bench::{figures, Scale};

fn golden(name: &str, committed: &str) {
    let output = figures::render(name, Scale::Small).expect("a registered output");
    assert!(
        output.ok(),
        "{name}: {} claim(s) fail:\n{}",
        output.failures.len(),
        output.failures.join("\n")
    );
    if let Some(difference) = figures::first_difference(&output.text, committed) {
        panic!(
            "bench/figures/small/{name}.txt is stale at {difference}\n\
             If the change is deliberate, regenerate the file and explain every moved row:\n  \
             cargo run -q -p dsm-bench --release --bin figures -- {name} > \
             bench/figures/small/{name}.txt"
        );
    }
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            golden(
                stringify!($name),
                include_str!(concat!("../../../bench/figures/small/", stringify!($name), ".txt")),
            );
        }
    )*};
}

golden!(
    fig2,
    fig3,
    fig5,
    ablation_notify,
    ablation_alpha,
    ablation_related,
    gate,
    sim_matrix,
    sim_matrix_lossy,
);
