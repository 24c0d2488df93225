//! `paper_repro`: the paper's train → constrain → cost loop at small
//! scale on Digits-8bit. Train a baseline, retrain under `{1}`, compile,
//! measure test accuracy, then model conventional and MAN energy with a
//! fresh `CostModel`. Every op must reproduce the warm-up op's accuracy
//! and energies bit for bit.

use man_repro::man::alphabet::AlphabetSet;
use man_repro::man::engine::CostModel;
use man_repro::man::fixed::LayerAlphabets;
use man_repro::man::zoo::Benchmark;
use man_repro::man_datasets::{Dataset, GenOptions};
use man_repro::man_hw::neuron::NeuronKind;
use man_repro::{CompiledModel, Parallelism, Pipeline};

use crate::probe::Probe;
use crate::{Metrics, Workload};

/// Training and test rows.
const TRAIN: usize = 160;
const TEST: usize = 12;
/// Epochs of the baseline training and of the `{1}` retraining.
const EPOCHS: usize = 2;
const RETRAIN_EPOCHS: usize = 1;
/// Images whose operand traces drive the energy model, and MAC vectors
/// streamed per layer.
const COST_SAMPLES: usize = 4;
const STREAM_LIMIT: usize = 600;
const BITS: u32 = 8;

/// What one op produces; every op must reproduce it exactly.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Outcome {
    accuracy: u64,
    conventional_pj: u64,
    man_pj: u64,
}

pub struct PaperRepro {
    seed: u64,
    data: Dataset,
    reference: Outcome,
    /// The model the latest op compiled, for the traced layer calls.
    last: Option<CompiledModel>,
}

impl PaperRepro {
    fn run(&mut self, probe: &mut Probe) -> Result<Outcome, String> {
        let seed = self.seed;
        let data = &self.data;
        let baseline = probe
            .time("nn.train_baseline", || {
                Pipeline::for_benchmark(Benchmark::DigitsMlp)
                    .with_bits(BITS)
                    .with_alphabets(vec![AlphabetSet::a1()])
                    .with_data(data)
                    .with_parallelism(Parallelism::Sequential)
                    .configure(move |cfg| {
                        cfg.seed = seed;
                        cfg.initial_epochs = EPOCHS;
                        cfg.retrain_epochs = RETRAIN_EPOCHS;
                    })
                    .train_baseline()
            })
            .map_err(|e| e.to_string())?;
        let layers = baseline.spec().layer_formats().len();
        let trained = probe
            .time("core.retrain", || {
                baseline.retrain(&LayerAlphabets::uniform(AlphabetSet::a1(), layers))
            })
            .map_err(|e| e.to_string())?;
        let compiled = probe
            .time("core.compile", || trained.compile())
            .map_err(|e| e.to_string())?;
        let accuracy = probe.time("engine.accuracy", || {
            compiled.accuracy(&data.test_images, &data.test_labels)
        });
        let samples = &data.test_images[..COST_SAMPLES];
        let (conventional, man) = probe
            .time("cost", || {
                let mut model = CostModel::default();
                model.stream_limit = STREAM_LIMIT;
                let conventional = compiled.clone().cost_conventional(&mut model, samples)?;
                let man = compiled.clone().cost(&mut model, samples)?;
                Ok::<_, man_repro::ManError>((conventional.report.energy_pj, man.report.energy_pj))
            })
            .map_err(|e| e.to_string())?;
        self.last = Some(compiled);
        Ok(Outcome {
            accuracy: accuracy.to_bits(),
            conventional_pj: conventional.to_bits(),
            man_pj: man.to_bits(),
        })
    }
}

impl Workload for PaperRepro {
    fn setup(seed: u64, probe: &mut Probe) -> Result<Self, String> {
        let opts = GenOptions {
            train: TRAIN,
            test: TEST,
            seed,
        };
        let data = probe.time("datasets.gen", || Benchmark::DigitsMlp.dataset(&opts));
        let mut paper = PaperRepro {
            seed,
            data,
            reference: Outcome {
                accuracy: 0,
                conventional_pj: 0,
                man_pj: 0,
            },
            last: None,
        };
        // The warm-up op; its outcome is what every later op must repeat.
        paper.reference = paper.run(&mut Probe::off())?;
        Ok(paper)
    }

    fn op(&mut self, _i: u64, probe: &mut Probe) -> Result<(), String> {
        let got = self.run(probe)?;
        if got != self.reference {
            return Err(format!(
                "op outcome {got:?} differs from the warm-up op's {:?}",
                self.reference
            ));
        }
        Ok(())
    }

    fn layer_calls(&mut self, _i: u64, probe: &mut Probe) {
        let _ = probe.time("hw.synth", || {
            let mut model = CostModel::default();
            model.datapath(BITS, &NeuronKind::Conventional)?;
            model.datapath(BITS, &NeuronKind::Asm(vec![1])).map(|_| ())
        });
        if let Some(compiled) = &self.last {
            let samples = &self.data.test_images[..COST_SAMPLES];
            std::hint::black_box(probe.time("engine.sample_traces", || {
                compiled.fixed().sample_traces(samples, STREAM_LIMIT)
            }));
        }
    }

    fn layer_metrics(&self, probe: &Probe, out: &mut Metrics) {
        out.put("datasets.gen_ms", probe.sum("datasets.gen") * 1e3, "ms");
        for (span, name) in [
            ("nn.train_baseline", "nn.train_baseline_ms"),
            ("core.retrain", "core.retrain_ms"),
            ("core.compile", "core.compile_ms"),
            ("engine.accuracy", "engine.accuracy_ms"),
            ("cost", "cost.ms"),
            ("hw.synth", "hw.synth_ms"),
            ("engine.sample_traces", "engine.sample_traces_ms"),
        ] {
            out.put(name, probe.median(span) * 1e3, "ms");
        }
        let man = f64::from_bits(self.reference.man_pj);
        let conventional = f64::from_bits(self.reference.conventional_pj);
        out.put(
            "cost.energy_saving_pct",
            100.0 * (1.0 - man / conventional),
            "%",
        );
    }
}
