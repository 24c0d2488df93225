//! `zoo_batch`: one 64-row `infer_batch` through each of the five
//! Table IV models on persistent sessions, every row checked against the
//! scalar ASM reference `FixedNet::infer_raw`.

use man_repro::man::alphabet::AlphabetSet;
use man_repro::man::zoo::Benchmark;
use man_repro::man_datasets::GenOptions;
use man_repro::{CompiledModel, InferenceSession, Pipeline};

use crate::host::status_mb;
use crate::probe::Probe;
use crate::{Metrics, Workload};

/// Rows per batch.
const ROWS: usize = 64;
/// Distinct input batches per model; op `i` runs batch `i % BATCHES`.
const BATCHES: usize = 2;

/// The five models with the names their per-layer metrics use.
const MODELS: [(Benchmark, &str, &str); 5] = [
    (Benchmark::DigitsMlp, "digits_mlp", "engine.digits_mlp"),
    (Benchmark::DigitsCnn, "digits_cnn", "engine.digits_cnn"),
    (Benchmark::Faces, "faces", "engine.faces"),
    (Benchmark::Svhn, "svhn", "engine.svhn"),
    (Benchmark::Tich, "tich", "engine.tich"),
];

struct Model {
    compiled: CompiledModel,
    session: InferenceSession,
    batches: Vec<Vec<Vec<f32>>>,
    /// `reference[batch][row]`: the scalar reference scores.
    reference: Vec<Vec<Vec<i64>>>,
}

pub struct ZooBatch {
    models: Vec<Model>,
    compiled_mb: f64,
    session_mb: f64,
}

impl ZooBatch {
    fn run_model(
        model: &mut Model,
        span: &'static str,
        i: u64,
        probe: &mut Probe,
    ) -> Result<(), String> {
        let b = i as usize % BATCHES;
        let preds = probe
            .time(span, || model.session.infer_batch(&model.batches[b]))
            .map_err(|e| format!("{span}: {e}"))?;
        if let Some(want) = model.reference.get(b) {
            let same =
                preds.len() == want.len() && preds.iter().zip(want).all(|(p, w)| p.scores == *w);
            if !same {
                return Err(format!(
                    "{span}: scores differ from FixedNet::infer_raw on batch {b}"
                ));
            }
        }
        Ok(())
    }
}

impl Workload for ZooBatch {
    fn setup(seed: u64, probe: &mut Probe) -> Result<Self, String> {
        let mut data = Vec::new();
        for (i, (bench, _, _)) in MODELS.iter().enumerate() {
            let opts = GenOptions {
                train: 0,
                test: ROWS * BATCHES,
                seed: seed.wrapping_add(i as u64),
            };
            let ds = probe.time("datasets.gen", || bench.dataset(&opts));
            data.push(
                ds.test_images
                    .chunks(ROWS)
                    .map(<[_]>::to_vec)
                    .collect::<Vec<_>>(),
            );
        }
        let rss0 = status_mb("VmRSS");
        let mut compiled = Vec::new();
        for (bench, _, _) in MODELS {
            let trained = probe
                .time("core.constrain", || {
                    Pipeline::for_benchmark(bench)
                        .with_bits(bench.default_bits())
                        .with_alphabets(vec![AlphabetSet::a1()])
                        .configure(move |cfg| cfg.seed = seed)
                        .constrain()
                })
                .map_err(|e| e.to_string())?;
            compiled.push(
                probe
                    .time("core.compile", || trained.compile())
                    .map_err(|e| e.to_string())?,
            );
        }
        let rss1 = status_mb("VmRSS");
        let mut zoo = ZooBatch {
            models: compiled
                .into_iter()
                .zip(data)
                .map(|(compiled, batches)| Model {
                    session: compiled.session(),
                    compiled,
                    batches,
                    reference: Vec::new(),
                })
                .collect(),
            compiled_mb: rss1 - rss0,
            session_mb: 0.0,
        };
        // The warm-up op, unverified until `reference` runs.
        for (model, (_, _, span)) in zoo.models.iter_mut().zip(MODELS) {
            Self::run_model(model, span, 0, &mut Probe::off())?;
        }
        zoo.session_mb = status_mb("VmRSS") - rss1;
        Ok(zoo)
    }

    fn reference(&mut self) -> Result<(), String> {
        for model in &mut self.models {
            let fixed = model.compiled.fixed();
            model.reference = model
                .batches
                .iter()
                .map(|batch| batch.iter().map(|row| fixed.infer_raw(row)).collect())
                .collect();
        }
        Ok(())
    }

    fn op(&mut self, i: u64, probe: &mut Probe) -> Result<(), String> {
        for (model, (_, _, span)) in self.models.iter_mut().zip(MODELS) {
            Self::run_model(model, span, i, probe)?;
        }
        Ok(())
    }

    fn plans(&self) -> Vec<(String, String)> {
        self.models
            .iter()
            .zip(MODELS)
            .map(|(m, (_, name, _))| (name.to_owned(), m.session.stats().plan))
            .collect()
    }

    fn layer_metrics(&self, probe: &Probe, out: &mut Metrics) {
        out.put("datasets.gen_ms", probe.sum("datasets.gen") * 1e3, "ms");
        out.put("core.constrain_ms", probe.sum("core.constrain") * 1e3, "ms");
        out.put("core.compile_ms", probe.sum("core.compile") * 1e3, "ms");
        out.put("mem.compiled_mb", self.compiled_mb, "MiB");
        out.put("mem.session_mb", self.session_mb, "MiB");
        for (model, (_, _, span)) in self.models.iter().zip(MODELS) {
            let macs = (ROWS as u64 * model.compiled.macs_per_inference()) as f64;
            let name = format!("{span}.ns_per_mac");
            out.put(&name, probe.median(span) * 1e9 / macs, "ns");
        }
    }
}
