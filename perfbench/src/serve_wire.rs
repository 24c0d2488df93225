//! `serve_wire`: one NDJSON predict then one MANB predict of Digits-8bit
//! `{1}`, over two loopback connections to an in-process `Server` with
//! the default registry, one request in flight, every reply checked
//! against in-process reference answers.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use man_repro::man::alphabet::AlphabetSet;
use man_repro::man::zoo::Benchmark;
use man_repro::man_datasets::GenOptions;
use man_repro::{CompiledModel, InferenceSession, Pipeline};
use man_serve::{framing, protocol, BinaryClient, ModelRegistry, Server, TcpClient};

use crate::probe::{median, quantile, Probe};
use crate::{Metrics, Workload};

const MODEL: &str = "digits";
/// Distinct inputs; op `i` sends input `i % INPUTS`.
const INPUTS: usize = 64;
/// Inputs each traced round of per-layer calls goes through.
const LAYER_INPUTS: u64 = 8;
/// Calls per timed codec sample (one call is a few microseconds).
const CODEC_REPS: u32 = 16;

/// Per-process artifact directory under the working directory.
fn artifact_dir() -> PathBuf {
    PathBuf::from(".bench_run").join(std::process::id().to_string())
}

pub struct ServeWire {
    compiled: CompiledModel,
    inputs: Vec<Vec<f32>>,
    /// `(class, scores)` per input, computed in-process.
    reference: Vec<(usize, Vec<i64>)>,
    artifact: PathBuf,
    registry: Arc<ModelRegistry>,
    server: Server,
    ndjson: TcpClient,
    binary: BinaryClient,
    /// Seconds per NDJSON / MANB predict, over every op.
    ndjson_s: Vec<f64>,
    binary_s: Vec<f64>,
    /// A one-row session of the served model, opened by the first
    /// traced layer call.
    b1: Option<InferenceSession>,
}

fn argmax(scores: &[i64]) -> usize {
    // First maximum wins, as the engine breaks ties.
    (0..scores.len()).fold(0, |best, i| if scores[i] > scores[best] { i } else { best })
}

fn ndjson_line(input: &[f32]) -> String {
    let values: Vec<String> = input.iter().map(f32::to_string).collect();
    format!(
        "{{\"op\":\"predict\",\"model\":\"{MODEL}\",\"input\":[{}]}}",
        values.join(",")
    )
}

impl ServeWire {
    /// One op whose latencies are not recorded. The first request after
    /// another workload's op pays the server threads' wake-up from idle.
    pub fn unrecorded_op(&mut self, i: u64) -> Result<(), String> {
        let kept = self.ndjson_s.len();
        let result = self.op(i, &mut Probe::off());
        self.ndjson_s.truncate(kept);
        self.binary_s.truncate(kept);
        result
    }

    fn check(
        &self,
        mode: &str,
        k: usize,
        got: Result<(usize, Vec<i64>), man_serve::WireError>,
    ) -> Result<(), String> {
        let got = got.map_err(|e| format!("{mode} predict: {e}"))?;
        match self.reference.get(k) {
            Some(want) if *want != got => Err(format!(
                "{mode} reply for input {k} differs from the in-process answer"
            )),
            _ => Ok(()),
        }
    }
}

impl Workload for ServeWire {
    fn setup(seed: u64, probe: &mut Probe) -> Result<Self, String> {
        static ARTIFACTS: AtomicU64 = AtomicU64::new(0);
        let bench = Benchmark::DigitsMlp;
        let opts = GenOptions {
            train: 0,
            test: INPUTS,
            seed,
        };
        let inputs = probe
            .time("datasets.gen", || bench.dataset(&opts))
            .test_images;
        let trained = probe
            .time("core.constrain", || {
                Pipeline::for_benchmark(bench)
                    .with_bits(bench.default_bits())
                    .with_alphabets(vec![AlphabetSet::a1()])
                    .configure(move |cfg| cfg.seed = seed)
                    .constrain()
            })
            .map_err(|e| e.to_string())?;
        let compiled = probe
            .time("core.compile", || trained.compile())
            .map_err(|e| e.to_string())?;
        let dir = artifact_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let artifact = dir.join(format!(
            "{MODEL}-{}.man.json",
            ARTIFACTS.fetch_add(1, Ordering::Relaxed)
        ));
        compiled.save(&artifact).map_err(|e| e.to_string())?;
        if probe.is_on() {
            probe
                .time("artifact.load", || CompiledModel::load(&artifact))
                .map_err(|e| e.to_string())?;
        }
        let registry = ModelRegistry::with_defaults();
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&registry)).map_err(|e| format!("bind: {e}"))?;
        let mut ndjson =
            TcpClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let binary =
            BinaryClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let path = artifact.to_str().ok_or("artifact path is not UTF-8")?;
        probe
            .time("serve.load", || ndjson.load(MODEL, path))
            .map_err(|e| format!("wire load: {e}"))?;
        let mut wire = ServeWire {
            compiled,
            inputs,
            reference: Vec::new(),
            artifact,
            registry,
            server,
            ndjson,
            binary,
            ndjson_s: Vec::new(),
            binary_s: Vec::new(),
            b1: None,
        };
        // The warm-up op, unverified until `reference` runs.
        wire.op(0, &mut Probe::off())?;
        wire.ndjson_s.clear();
        wire.binary_s.clear();
        Ok(wire)
    }

    fn reference(&mut self) -> Result<(), String> {
        let fixed = self.compiled.fixed();
        self.reference = self
            .inputs
            .iter()
            .map(|x| {
                let scores = fixed.infer_raw(x);
                (argmax(&scores), scores)
            })
            .collect();
        Ok(())
    }

    fn op(&mut self, i: u64, probe: &mut Probe) -> Result<(), String> {
        let k = i as usize % self.inputs.len();
        let start = Instant::now();
        let got = self.ndjson.predict(MODEL, &self.inputs[k]);
        let mid = Instant::now();
        let ndjson = self.check("NDJSON", k, got);
        let start_b = Instant::now();
        let got = self.binary.predict(MODEL, &self.inputs[k]);
        let end = Instant::now();
        let binary = self.check("MANB", k, got);
        let (n, b) = ((mid - start).as_secs_f64(), (end - start_b).as_secs_f64());
        self.ndjson_s.push(n);
        self.binary_s.push(b);
        probe.record("wire.ndjson", n);
        probe.record("wire.binary", b);
        ndjson.and(binary)
    }

    fn layer_calls(&mut self, i: u64, probe: &mut Probe) {
        for j in 0..LAYER_INPUTS {
            let x = &self.inputs[(i + j) as usize % self.inputs.len()];
            let compiled = &self.compiled;
            let session = self.b1.get_or_insert_with(|| compiled.session());
            let Ok(pred) = probe.time("engine.b1", || session.infer(x)) else {
                return;
            };
            let input = x.clone();
            let _ =
                black_box(probe.time("scheduler.predict", || self.registry.predict(MODEL, input)));
            let mut reps = |name: &'static str, f: &mut dyn FnMut()| {
                let start = Instant::now();
                for _ in 0..CODEC_REPS {
                    f();
                }
                probe.record(name, start.elapsed().as_secs_f64() / f64::from(CODEC_REPS));
            };
            let line = ndjson_line(x);
            reps("codec.ndjson_decode", &mut || {
                black_box(protocol::parse_request(black_box(&line)).is_ok());
            });
            reps("codec.ndjson_encode", &mut || {
                black_box(protocol::predict_response(MODEL, black_box(&pred)));
            });
            // The request body follows the 4-byte length prefix and the tag.
            let frame = framing::frame_predict_request(MODEL, x);
            reps("codec.binary_decode", &mut || {
                black_box(framing::decode_predict_request(black_box(&frame[5..])).is_ok());
            });
            reps("codec.binary_encode", &mut || {
                black_box(framing::frame_predict_response(black_box(&pred)));
            });
        }
    }

    fn plans(&self) -> Vec<(String, String)> {
        let plan = self
            .registry
            .stats(Some(MODEL))
            .ok()
            .and_then(|s| s.into_iter().next())
            .map_or_else(|| "unknown".to_owned(), |s| s.plan);
        vec![(format!("served_{MODEL}"), plan)]
    }

    fn wire_ms(&self) -> Option<(f64, f64)> {
        let ms = |s: &[f64]| median(s) * 1e3;
        Some((ms(&self.ndjson_s), ms(&self.binary_s)))
    }

    fn layer_metrics(&self, probe: &Probe, out: &mut Metrics) {
        out.put("datasets.gen_ms", probe.sum("datasets.gen") * 1e3, "ms");
        out.put("core.constrain_ms", probe.sum("core.constrain") * 1e3, "ms");
        out.put("core.compile_ms", probe.sum("core.compile") * 1e3, "ms");
        out.put("artifact.load_ms", probe.sum("artifact.load") * 1e3, "ms");
        out.put("serve.load_ms", probe.sum("serve.load") * 1e3, "ms");
        out.put("engine.b1_us", probe.median("engine.b1") * 1e6, "us");
        out.put(
            "scheduler.predict_us",
            probe.median("scheduler.predict") * 1e6,
            "us",
        );
        let mean_batch = self
            .registry
            .stats(Some(MODEL))
            .ok()
            .and_then(|s| s.first().map(|s| s.mean_batch))
            .unwrap_or(f64::NAN);
        out.put("scheduler.mean_batch", mean_batch, "rows");
        for codec in [
            "ndjson_decode",
            "ndjson_encode",
            "binary_decode",
            "binary_encode",
        ] {
            let name = format!("codec.{codec}");
            out.put(&format!("{name}_us"), probe.median(&name) * 1e6, "us");
        }
        for (stage, mean_us) in probe.stage_means() {
            out.put(&format!("stage.{stage}_us"), mean_us, "us");
        }
        out.put(
            "ndjson_p90_ms",
            quantile(probe.samples("wire.ndjson"), 0.9) * 1e3,
            "ms",
        );
        out.put(
            "binary_p90_ms",
            quantile(probe.samples("wire.binary"), 0.9) * 1e3,
            "ms",
        );
    }
}

impl Drop for ServeWire {
    fn drop(&mut self) {
        self.server.shutdown();
        self.registry.shutdown();
        let _ = std::fs::remove_file(&self.artifact);
        if let Some(dir) = self.artifact.parent() {
            let _ = std::fs::remove_dir(dir);
            let _ = dir.parent().map(std::fs::remove_dir);
        }
    }
}
