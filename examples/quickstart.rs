//! Quickstart: what an Alphabet Set Multiplier is, and the whole
//! methodology as a four-line pipeline — constrain, compile, save/load,
//! serve.
//!
//! Run with: `cargo run --release --example quickstart`

use man_repro::man::alphabet::AlphabetSet;
use man_repro::man::asm::AsmMultiplier;
use man_repro::man::constrain::WeightLattice;
use man_repro::man::zoo::Benchmark;
use man_repro::man_par::available_cores;
use man_repro::{CompiledModel, ManError, Parallelism, Pipeline};

fn main() -> Result<(), ManError> {
    // What this host can actually parallelize — CI logs grep this line
    // to see what the runners exercised.
    let par = Parallelism::Auto;
    println!(
        "[man-par] host cores: {}, batch sessions below run {}",
        available_cores(),
        par.label()
    );

    // ---- Part 1: the multiplier the paper replaces multiplication with.

    // An 8-bit ASM with the 4-alphabet set {1,3,5,7}.
    let asm = AsmMultiplier::new(8, AlphabetSet::a4());
    let input = 77u32;
    let bank = asm.precompute(input); // the "pre-computer bank": [1,3,5,7]·77
    println!("pre-computer bank of {input}: {bank:?}");

    // Fig. 2's example weight 0b0100_1010: quartet 10 = 5<<1, quartet
    // 4 = 1<<2 — a pure select/shift/add multiplication.
    let w = 0b0100_1010u32;
    let product = asm.multiply(w, &bank).expect("supported weight");
    assert_eq!(product, w as u64 * input as u64);
    println!("{w} x {input} = {product} via select, shift, add");

    // Unsupported weights are rejected — Table I's W1 = 105 contains
    // quartet 9, which {1,3,5,7} cannot produce...
    let err = asm.multiply(105, &bank).unwrap_err();
    println!("unconstrained weight: {err}");

    // ...so Algorithm 1 rounds it onto the representable lattice.
    let lattice = WeightLattice::new(8, &AlphabetSet::a4());
    let constrained = lattice.project_exact(105);
    println!("Algorithm 1: 105 -> {constrained}");

    // The MAN: alphabet {1} — no pre-computer bank at all; multiplication
    // is shift-and-add only.
    let man = AsmMultiplier::new(8, AlphabetSet::a1());
    assert_eq!(man.precompute(input), vec![input as u64]);

    // ---- Part 2: the same idea at network scale, via the Pipeline.
    //
    // `constrain()` projects a freshly built benchmark network onto the
    // MAN lattice without training (fast); swap in `.train()?` for the
    // full Algorithm-2 methodology.
    let compiled = Pipeline::for_benchmark(Benchmark::Faces)
        .with_bits(8)
        .with_alphabets(vec![AlphabetSet::a1()])
        .constrain()?
        .compile()?;
    println!(
        "compiled {}-bit model: {} parameterized layers, alphabets {}",
        compiled.bits(),
        compiled.fixed().layer_count(),
        compiled.alphabets().label(),
    );

    // One-file artifact: save, reload, and verify bit-identical logits.
    let path = std::env::temp_dir().join("man_quickstart.man.json");
    compiled.save(&path)?;
    let reloaded = CompiledModel::load(&path)?;
    let pixels = vec![0.5f32; 1024];
    assert_eq!(
        compiled.fixed().infer_raw(&pixels),
        reloaded.fixed().infer_raw(&pixels),
        "artifact reloads bit-identically"
    );
    println!("artifact round-trip OK: {}", path.display());

    // Serve a batch through the exact-integer MAC path, rows sharded
    // across every available core (bit-identical to the sequential
    // session and to the ASM reference `infer_raw` — DESIGN.md §8/§10).
    let session = reloaded.session().with_parallelism(par);
    let batch: Vec<Vec<f32>> = (0..4).map(|i| vec![0.2 * i as f32; 1024]).collect();
    for (i, p) in session.infer_batch(&batch)?.iter().enumerate() {
        println!("batch[{i}] -> class {} (scores {:?})", p.class, p.scores);
    }
    for (x, p) in batch.iter().zip(session.infer_batch(&batch)?) {
        assert_eq!(
            reloaded.fixed().infer_raw(x),
            p.scores,
            "matches the ASM oracle"
        );
    }
    println!(
        "batch of {} resolved to plan {}",
        batch.len(),
        session.stats().plan
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
