//! `sciml` — command-line tool for the preprocessing-pipeline codecs.
//!
//! ```text
//! sciml gen cosmo   --out DIR --n N [--grid G] [--seed S] [--format base|gzip|custom]
//! sciml gen deepcam --out DIR --n N [--width W] [--height H] [--channels C] [--format ...]
//! sciml inspect FILE...            # detect format by magic, print summary
//! sciml verify FILE...             # parse + decode + integrity / error report
//! sciml transcode FILE --out FILE  # baseline payload -> custom encoding
//! sciml serve (--dir DIR --n N | --store DIR) [--addr HOST:PORT] [--name NAME] [--cache-mb M]
//!             [--max-conns N] [--cluster-nodes A,B,C [--replication R]]
//!             [--metrics-out F] [--metrics-addr HOST:PORT] [--trace-out FILE]
//! sciml fetch --addr HOST:PORT [--name NAME] [--indices I,J,K | --all] [--shutdown]
//!             [--decode cosmo|deepcam [--batch B] [--epochs E] [--pool-capacity N]]
//!             [--metrics-out FILE] [--trace-out FILE]
//!             [--watch SECS] [--attribution-out FILE]
//! sciml pack --dir DIR --n N --out DIR [--shard-mb M] [--encoding raw|gzip|auto]
//! sciml stage (--addr A[,B,...] [--name D] | --dir DIR [--n N [--per-shard K]])
//!             --out DIR [--workers W] [--encoding raw|gzip|auto]
//!             # --addr: seeds tried in turn; --dir: a packed store (it holds a
//!             # store.manifest) or N per-sample files
//! sciml cluster-plan (--nodes A,B,C --n N [--per-shard K] [--replication R] | --addr HOST:PORT [--name D])
//! sciml soak --addr HOST:PORT [--name D] [--conns N] [--fetches K]
//! sciml verify-store DIR           # CRC-check every shard + sample of a packed store
//! sciml validate-json FILE...      # check emitted trace/report files parse as JSON
//! sciml trace-merge --out OUT IN...   # merge Chrome traces onto one timeline
//! sciml scrape --addr HOST:PORT [--require fam1,fam2] [--out FILE]
//! ```

use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_data::cosmoflow::CosmoFlowConfig;
use sciml_data::deepcam::DeepCamConfig;
use sciml_data::serialize;
use sciml_obs::Telemetry;
use sciml_pipeline::decoder::{CosmoPluginCpu, DeepCamPluginCpu};
use sciml_pipeline::source::DirSource;
use sciml_pipeline::{DecoderPlugin, Pipeline, PipelineConfig, SampleSource};
use sciml_serve::{
    ClientConfig, ClusterConfig, ClusterSource, RemoteSource, ServeBuilder, ServerConfig,
};
use sciml_store::manifest::plan_by_count;
use sciml_store::{
    pack_store, ClusterPlan, EncodingChoice, EncodingCounts, PackConfig, ShardReader, ShardSource,
    Stager, StagerConfig,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sciml: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("inspect") => for_each_file(&args[1..], inspect),
        Some("verify") => for_each_file(&args[1..], verify),
        Some("transcode") => transcode(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("fetch") => fetch(&args[1..]),
        Some("pack") => pack(&args[1..]),
        Some("stage") => stage(&args[1..]),
        Some("verify-store") => verify_store(&args[1..]),
        Some("cluster-plan") => cluster_plan(&args[1..]),
        Some("soak") => soak(&args[1..]),
        Some("validate-json") => for_each_file(&args[1..], validate_json),
        Some("trace-merge") => trace_merge(&args[1..]),
        Some("scrape") => scrape(&args[1..]),
        Some("cpu-features") => cpu_features(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `sciml help`)")),
    }
}

fn print_usage() {
    println!(
        "sciml — dataset & codec tool for the preprocessing-pipeline reproduction\n\n\
         commands:\n  \
         gen cosmo|deepcam --out DIR --n N [options]   generate an encoded dataset\n  \
         inspect FILE...                               identify and summarize files\n  \
         verify FILE...                                decode + integrity report\n  \
         transcode FILE --out FILE                     baseline payload -> custom encoding\n  \
         serve (--dir DIR --n N | --store DIR)         serve an encoded dataset over TCP\n  \
         fetch --addr A [--name D] [--indices I,J]     fetch samples from a server\n  \
         ..... --decode cosmo|deepcam [--pool-capacity N]  run a pooled decode pipeline over it\n  \
         pack --dir DIR --n N --out DIR                pack per-file samples into .sshard shards\n  \
         stage (--addr A[,B,...] | --dir DIR [--n N]) --out DIR  stage a dataset (server, packed store, or N files) into a local packed copy\n  \
         verify-store DIR                              CRC-check every shard of a packed store\n  \
         cluster-plan (--nodes A,B,C --n N | --addr A) print consistent-hash shard placement + balance\n  \
         soak --addr A [--conns N] [--fetches K]       hold N concurrent connections, fetch, report tails\n  \
         validate-json FILE...                         check trace/report JSON well-formedness\n  \
         trace-merge --out OUT IN...                   merge Chrome traces onto one timeline\n  \
         scrape --addr A [--require f1,f2] [--out F]   scrape + validate a metrics endpoint\n  \
         cpu-features [--list]                         SIMD tier detection + per-kernel dispatch plan\n\n\
         telemetry flags (serve / fetch):\n  \
         --metrics-out FILE    write the Prometheus-text metrics exposition on exit\n  \
         --metrics-addr A      serve the same exposition on A (serve; read it with scrape)\n  \
         --trace-out FILE      write a Chrome trace-event JSON file\n  \
         --watch SECS          live bottleneck line every SECS (fetch)\n  \
         --attribution-out F   write the bottleneck-attribution report (fetch)"
    );
}

/// Pulls `--flag value` out of an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for {name}: {v}")),
        None => Ok(default),
    }
}

fn positional_files(args: &[String]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            // All our flags take a value.
            skip = args.get(i + 1).is_some();
            continue;
        }
        out.push(PathBuf::from(a));
    }
    out
}

fn for_each_file(args: &[String], f: fn(&Path) -> Result<(), String>) -> Result<(), String> {
    let files = positional_files(args);
    if files.is_empty() {
        return Err("no files given".into());
    }
    for file in files {
        f(&file)?;
    }
    Ok(())
}

// -------------------------------------------------------------------

fn gen(args: &[String]) -> Result<(), String> {
    let workload = args.first().map(String::as_str);
    let out = flag(args, "--out").ok_or("--out DIR required")?;
    let n: usize = flag_parse(args, "--n", 8)?;
    let seed: u64 = flag_parse(args, "--seed", 0x5C1_3ACE)?;
    let format = match flag(args, "--format").as_deref() {
        None | Some("custom") => EncodedFormat::Custom,
        Some("base") => EncodedFormat::Base,
        Some("gzip") => EncodedFormat::Gzip,
        Some(other) => return Err(format!("unknown format {other}")),
    };

    let builder = match workload {
        Some("cosmo") => {
            let grid: usize = flag_parse(args, "--grid", 32)?;
            DatasetBuilder::cosmoflow(CosmoFlowConfig {
                grid,
                seed,
                ..CosmoFlowConfig::default()
            })
        }
        Some("deepcam") => {
            let width: usize = flag_parse(args, "--width", 384)?;
            let height: usize = flag_parse(args, "--height", 256)?;
            let channels: usize = flag_parse(args, "--channels", 8)?;
            DatasetBuilder::deepcam(DeepCamConfig {
                width,
                height,
                channels,
                seed,
                ..DeepCamConfig::default()
            })
        }
        _ => return Err("gen needs a workload: cosmo | deepcam".into()),
    };

    std::fs::create_dir_all(&out).map_err(|e| format!("create {out}: {e}"))?;
    let blobs = builder.build(n, format);
    let mut total = 0usize;
    for (i, b) in blobs.iter().enumerate() {
        let path = Path::new(&out).join(format!("sample_{i:06}.bin"));
        std::fs::write(&path, b).map_err(|e| format!("write {path:?}: {e}"))?;
        total += b.len();
    }
    println!(
        "wrote {n} samples ({total} bytes, {:.1} KB avg) to {out}",
        total as f64 / n as f64 / 1e3
    );
    Ok(())
}

// -------------------------------------------------------------------

/// File kind detected from magic bytes.
enum Kind {
    CosmoCustom,
    DeepCamCustom,
    CosmoBase,
    H5Lite,
    Gzip,
    Unknown,
}

fn detect(bytes: &[u8]) -> Kind {
    match bytes.get(0..4) {
        Some(b"CFLX") => Kind::CosmoCustom,
        Some(b"DCMX") => Kind::DeepCamCustom,
        Some(b"CFSM") => Kind::CosmoBase,
        Some(b"H5LT") => Kind::H5Lite,
        Some([0x1F, 0x8B, ..]) => Kind::Gzip,
        _ => Kind::Unknown,
    }
}

fn inspect(path: &Path) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path:?}: {e}"))?;
    print!("{}: ", path.display());
    match detect(&bytes) {
        Kind::CosmoCustom => {
            let enc = cf::EncodedCosmo::from_bytes(&bytes).map_err(|e| e.to_string())?;
            println!(
                "CosmoFlow custom encoding — grid {}, {} chunk(s), {} groups, {} bytes ({:.2}x vs f32), label {:?}",
                enc.grid,
                enc.chunks.len(),
                enc.total_groups(),
                enc.encoded_bytes(),
                enc.compression_ratio(),
                enc.label
            );
        }
        Kind::DeepCamCustom => {
            let enc = dc::EncodedDeepCam::from_bytes(&bytes).map_err(|e| e.to_string())?;
            let modes = enc.lines.iter().fold([0usize; 3], |mut acc, l| {
                match l.mode {
                    dc::LineMode::Constant => acc[0] += 1,
                    dc::LineMode::RawF32 => acc[1] += 1,
                    dc::LineMode::Delta => acc[2] += 1,
                }
                acc
            });
            println!(
                "DeepCAM custom encoding — {}x{}x{}, lines {} const / {} raw / {} delta, {} bytes ({:.2}x)",
                enc.channels,
                enc.height,
                enc.width,
                modes[0],
                modes[1],
                modes[2],
                enc.encoded_bytes(),
                enc.compression_ratio()
            );
        }
        Kind::CosmoBase => {
            let s = serialize::cosmo_from_payload(&bytes).map_err(|e| e.to_string())?;
            println!(
                "CosmoFlow baseline payload — grid {}, {} values, label {:?}",
                s.grid,
                s.counts.len(),
                s.label.as_array()
            );
        }
        Kind::H5Lite => {
            let ds = sciml_data::h5lite::read(&bytes).map_err(|e| e.to_string())?;
            let names: Vec<String> = ds
                .iter()
                .map(|d| format!("{} {:?} {:?}", d.name, d.dtype, d.shape))
                .collect();
            println!(
                "h5lite container — {} dataset(s): {}",
                ds.len(),
                names.join(", ")
            );
        }
        Kind::Gzip => {
            let inner = sciml_compress::gzip_decompress(&bytes).map_err(|e| e.to_string())?;
            println!(
                "gzip member — {} bytes compressed, {} bytes inflated ({:.2}x)",
                bytes.len(),
                inner.len(),
                inner.len() as f64 / bytes.len() as f64
            );
        }
        Kind::Unknown => println!("unknown format ({} bytes)", bytes.len()),
    }
    Ok(())
}

fn verify(path: &Path) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path:?}: {e}"))?;
    match detect(&bytes) {
        Kind::CosmoCustom => {
            let enc = cf::EncodedCosmo::from_bytes(&bytes).map_err(|e| e.to_string())?;
            let counts = cf::decode_counts(&enc).map_err(|e| e.to_string())?;
            let decoded = cf::decode(&enc, Op::Log1p).map_err(|e| e.to_string())?;
            println!(
                "{}: OK — {} counts reconstructed losslessly, {} FP16 values decoded",
                path.display(),
                counts.len(),
                decoded.len()
            );
        }
        Kind::DeepCamCustom => {
            let enc = dc::EncodedDeepCam::from_bytes(&bytes).map_err(|e| e.to_string())?;
            let decoded = dc::decode(&enc, Op::Identity).map_err(|e| e.to_string())?;
            let finite = decoded.iter().filter(|h| h.is_finite()).count();
            println!(
                "{}: OK — {} FP16 values decoded, {} finite, mask {} bytes",
                path.display(),
                decoded.len(),
                finite,
                enc.mask.len()
            );
        }
        Kind::CosmoBase => {
            let s = serialize::cosmo_from_payload(&bytes).map_err(|e| e.to_string())?;
            println!(
                "{}: OK — baseline payload, {} counts",
                path.display(),
                s.counts.len()
            );
        }
        Kind::H5Lite => {
            let s = serialize::deepcam_from_h5(&bytes).map_err(|e| e.to_string())?;
            println!(
                "{}: OK — DeepCAM h5lite, {} f32 values + {} mask bytes",
                path.display(),
                s.data.len(),
                s.mask.len()
            );
        }
        Kind::Gzip => {
            let inner = sciml_compress::gzip_decompress(&bytes).map_err(|e| e.to_string())?;
            println!(
                "{}: OK — gzip CRC verified ({} bytes)",
                path.display(),
                inner.len()
            );
        }
        Kind::Unknown => return Err(format!("{}: unknown format", path.display())),
    }
    Ok(())
}

fn transcode(args: &[String]) -> Result<(), String> {
    let files = positional_files(args);
    let input = files.first().ok_or("transcode needs an input file")?;
    let out = flag(args, "--out").ok_or("--out FILE required")?;
    let bytes = std::fs::read(input).map_err(|e| format!("{input:?}: {e}"))?;
    let encoded = match detect(&bytes) {
        Kind::CosmoBase => {
            let s = serialize::cosmo_from_payload(&bytes).map_err(|e| e.to_string())?;
            cf::encode(&s).to_bytes()
        }
        Kind::H5Lite => {
            let s = serialize::deepcam_from_h5(&bytes).map_err(|e| e.to_string())?;
            dc::encode(&s, &dc::EncoderConfig::default()).0.to_bytes()
        }
        Kind::Gzip => {
            let inner = sciml_compress::gzip_decompress(&bytes).map_err(|e| e.to_string())?;
            let s = serialize::cosmo_from_payload(&inner).map_err(|e| e.to_string())?;
            cf::encode(&s).to_bytes()
        }
        _ => return Err("transcode expects a baseline payload (CFSM / H5LT / gzip)".into()),
    };
    std::fs::write(&out, &encoded).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "{} ({} bytes) -> {out} ({} bytes, {:.2}x)",
        input.display(),
        bytes.len(),
        encoded.len(),
        bytes.len() as f64 / encoded.len() as f64
    );
    Ok(())
}

// -------------------------------------------------------------------

fn serve(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".into());
    let name = flag(args, "--name").unwrap_or_else(|| "default".into());
    let cache_mb: u64 = flag_parse(args, "--cache-mb", 256)?;
    let workers: usize = flag_parse(args, "--workers", 4)?;
    let max_conns: usize =
        flag_parse(args, "--max-conns", ServerConfig::default().max_connections)?;

    let metrics_out = flag(args, "--metrics-out");
    let metrics_addr = flag(args, "--metrics-addr");
    let trace_out = flag(args, "--trace-out");
    // The tracer costs a per-span record when enabled, so it is on only
    // when the trace is actually going somewhere.
    let telemetry = if trace_out.is_some() {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let mut builder = ServeBuilder::new()
        .config(ServerConfig {
            workers,
            cache_bytes: cache_mb << 20,
            max_connections: max_conns,
            ..ServerConfig::default()
        })
        .telemetry(&telemetry);
    let cluster_desc = if let Some(list) = flag(args, "--cluster-nodes") {
        let nodes: Vec<String> = list
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if nodes.is_empty() {
            return Err("--cluster-nodes needs at least one host:port".into());
        }
        let replication: u16 = flag_parse(args, "--replication", 2)?;
        let desc = format!(", cluster of {} (replication {replication})", nodes.len());
        builder = builder.cluster(ClusterConfig { nodes, replication });
        desc
    } else {
        String::new()
    };

    let desc = if let Some(store_dir) = flag(args, "--store") {
        // Opening with telemetry registers the store.decode.* counters
        // in the shared registry, which the scrape endpoint and
        // --metrics-out expose.
        let store = ShardSource::open_with_telemetry(&store_dir, &telemetry)
            .map_err(|e| format!("open store {store_dir}: {e}"))?;
        let n = store.len();
        let shards = store.manifest().shards.len();
        builder = builder.dataset_store(&name, Arc::new(store));
        format!("{n} samples in {shards} shards from {store_dir}")
    } else {
        let dir = flag(args, "--dir").ok_or("--dir DIR or --store DIR required")?;
        let n: usize = flag_parse(args, "--n", 0)?;
        if n == 0 {
            return Err("--n N (number of samples in DIR) required".into());
        }
        let source = DirSource::open(&dir, n);
        // Fail early on an unreadable dataset rather than at first fetch.
        source
            .fetch(0)
            .map_err(|e| format!("cannot read sample 0 from {dir}: {e}"))?;
        builder = builder.dataset(&name, Arc::new(source) as Arc<dyn SampleSource>);
        format!("{n} samples from {dir}")
    };

    let handle = builder.bind(addr).map_err(|e| format!("bind: {e}"))?;
    println!(
        "serving '{name}' ({desc}) on {} — {workers} workers, \
         {max_conns} max connections, {cache_mb} MiB hot cache{cluster_desc}",
        handle.local_addr()
    );
    let scrape = match metrics_addr {
        Some(a) => {
            let (bound, h) = sciml_serve::spawn_scrape_listener(a, telemetry.clone())
                .map_err(|e| format!("bind metrics endpoint: {e}"))?;
            println!("metrics exposition on http://{bound}/metrics");
            Some(h)
        }
        None => None,
    };
    println!(
        "stop with: sciml fetch --addr {} --shutdown",
        handle.local_addr()
    );
    handle.join();
    if let Some(scrape) = scrape {
        scrape.shutdown();
    }
    if let Some(out) = metrics_out {
        std::fs::write(&out, telemetry.exposition()).map_err(|e| format!("write {out}: {e}"))?;
        println!("metrics exposition written to {out}");
    }
    if let Some(out) = trace_out {
        telemetry
            .write_trace(Path::new(&out))
            .map_err(|e| format!("write {out}: {e}"))?;
        println!("server trace written to {out}");
    }
    println!("server stopped");
    Ok(())
}

/// Flags `fetch` no longer reads, each with what took its place. `sciml`
/// passes over flags a command does not read, so these must fail
/// instead of silently doing nothing.
const RETIRED_FETCH_FLAGS: [(&str, &str); 3] = [
    (
        "--stats",
        "serve with --metrics-addr and read it with `sciml scrape`",
    ),
    (
        "--metrics-text",
        "--metrics-out, which writes the same exposition",
    ),
    (
        "--watch-iters",
        "`sciml scrape` against the server's --metrics-addr",
    ),
];

fn fetch(args: &[String]) -> Result<(), String> {
    if let Some((retired, instead)) = RETIRED_FETCH_FLAGS
        .iter()
        .find(|(f, _)| args.iter().any(|a| a == f))
    {
        return Err(format!("fetch {retired} is retired: use {instead}"));
    }
    let addr = flag(args, "--addr").ok_or("--addr HOST:PORT required")?;

    // Shutdown needs no dataset, so don't demand a valid --name for it.
    if args.iter().any(|a| a == "--shutdown") {
        RemoteSource::shutdown_at(&addr).map_err(|e| e.to_string())?;
        println!("server on {addr} acknowledged shutdown");
        return Ok(());
    }

    let name = flag(args, "--name").unwrap_or_else(|| "default".into());
    let metrics_out = flag(args, "--metrics-out");
    let trace_out = flag(args, "--trace-out");
    let attribution_out = flag(args, "--attribution-out");
    let watch: f64 = flag_parse(args, "--watch", 0.0)?;
    let telemetry = if trace_out.is_some() {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let src = Arc::new(
        RemoteSource::connect_with_registry(
            &addr,
            &name,
            ClientConfig::default(),
            Arc::clone(&telemetry.registry),
        )
        .map_err(|e| e.to_string())?,
    );
    let fetch_ns = telemetry.registry.histogram("client.fetch_ns");

    let indices: Vec<u64> = if args.iter().any(|a| a == "--all") {
        (0..src.len() as u64).collect()
    } else if let Some(list) = flag(args, "--indices") {
        list.split(',')
            .map(|s| s.trim().parse().map_err(|_| format!("bad index: {s}")))
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };

    println!("'{name}' on {addr}: {} samples", src.len());
    if !indices.is_empty() {
        let t0 = Instant::now();
        let samples = {
            let _span = telemetry.tracer.span("client", "fetch_batch");
            fetch_ns
                .time(|| src.fetch_batch(&indices))
                .map_err(|e| e.to_string())?
        };
        let dt = t0.elapsed();
        let bytes: usize = samples.iter().map(Vec::len).sum();
        println!(
            "fetched {} samples ({bytes} bytes) in {:.2} ms — {:.1} MiB/s",
            samples.len(),
            dt.as_secs_f64() * 1e3,
            bytes as f64 / dt.as_secs_f64() / (1024.0 * 1024.0)
        );
        if let Some(out) = flag(args, "--out") {
            std::fs::create_dir_all(&out).map_err(|e| format!("create {out}: {e}"))?;
            for (idx, sample) in indices.iter().zip(&samples) {
                let path = Path::new(&out).join(format!("sample_{idx:06}.bin"));
                std::fs::write(&path, sample).map_err(|e| format!("write {path:?}: {e}"))?;
            }
            println!("wrote {} files to {out}", samples.len());
        }
    }
    // Run a pooled decode pipeline straight off the remote source: the
    // zero-copy path end to end, with the pool hit rate as the receipt.
    if let Some(workload) = flag(args, "--decode") {
        let plugin: Arc<dyn DecoderPlugin> = match workload.as_str() {
            "cosmo" => Arc::new(CosmoPluginCpu { op: Op::Log1p }),
            "deepcam" => Arc::new(DeepCamPluginCpu { op: Op::Identity }),
            other => return Err(format!("--decode must be cosmo|deepcam, got `{other}`")),
        };
        let cfg = PipelineConfig {
            batch_size: flag_parse(args, "--batch", 4)?,
            epochs: flag_parse(args, "--epochs", 1)?,
            pool_capacity: flag(args, "--pool-capacity")
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("invalid value for --pool-capacity: {v}"))
                })
                .transpose()?,
            ..Default::default()
        };
        let mut p = Pipeline::launch_with(
            Arc::clone(&src) as Arc<dyn SampleSource>,
            plugin,
            cfg.clone(),
            telemetry.clone(),
        )
        .map_err(|e| e.to_string())?;
        // Background bottleneck attribution over the pipeline's own
        // registry: `--watch SECS` prints a live line per tick;
        // `--attribution-out` captures the final report either way.
        let sampler = if watch > 0.0 || attribution_out.is_some() {
            Some(sciml_obs::PipelineSampler::spawn(
                Arc::clone(&telemetry.registry),
                Arc::clone(&telemetry.tracer),
                sciml_obs::SamplerConfig {
                    interval: std::time::Duration::from_secs_f64(watch.max(0.25)),
                    stages: sciml_obs::pipeline_stages(
                        cfg.reader_threads as u64,
                        cfg.decode_threads as u64,
                    ),
                    live: watch > 0.0,
                },
            ))
        } else {
            None
        };
        let pool = p.pool();
        let t0 = Instant::now();
        let (mut batches, mut samples) = (0u64, 0u64);
        while let Some(b) = p.next_batch().map_err(|e| e.to_string())? {
            batches += 1;
            samples += b.len() as u64; // batch dropped here → buffer recycles
        }
        let dt = t0.elapsed().as_secs_f64();
        if let Some(sampler) = sampler {
            let report = sampler.stop();
            println!("{}", report.live_line());
            if let Some(out) = &attribution_out {
                std::fs::write(out, report.to_json()).map_err(|e| format!("write {out}: {e}"))?;
                println!("attribution report written to {out}");
            }
        }
        println!(
            "decoded {samples} samples in {batches} batches over {:.2} ms — {:.0} samples/s (pool capacity {})",
            dt * 1e3,
            samples as f64 / dt,
            pool.capacity(),
        );
        let checkouts = pool.hits() + pool.misses();
        if checkouts > 0 {
            println!(
                "  pool: {:.1}% hit rate ({} hits / {} misses), {} bytes resident",
                100.0 * pool.hits() as f64 / checkouts as f64,
                pool.hits(),
                pool.misses(),
                pool.resident_bytes(),
            );
        }
    }
    if let Some(out) = metrics_out {
        std::fs::write(&out, telemetry.exposition()).map_err(|e| format!("write {out}: {e}"))?;
        println!("client metrics exposition written to {out}");
    }
    if let Some(out) = trace_out {
        telemetry
            .write_trace(Path::new(&out))
            .map_err(|e| format!("write {out}: {e}"))?;
        println!("trace written to {out}");
    }
    Ok(())
}

// -------------------------------------------------------------------

/// Merges Chrome trace-event files (e.g. a client trace and a server
/// trace of the same run) onto one timeline, aligned by each tracer's
/// wall-clock epoch, one pid lane per input.
fn trace_merge(args: &[String]) -> Result<(), String> {
    let out = flag(args, "--out").ok_or("--out FILE required")?;
    let files = positional_files(args);
    if files.is_empty() {
        return Err("trace-merge needs at least one input trace".into());
    }
    let mut inputs = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path:?}: {e}"))?;
        let label = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        inputs.push((label, text));
    }
    let merged = sciml_obs::merge_chrome_traces(&inputs).map_err(|e| e.to_string())?;
    std::fs::write(&out, merged).map_err(|e| format!("write {out}: {e}"))?;
    println!("merged {} trace(s) into {out}", files.len());
    Ok(())
}

/// Reports the detected SIMD tier, the `SCIML_SIMD` override state, and
/// the kernel path every decode workload will take on this host.
/// `--list` prints just the supported tier names, one per line — the
/// form the CI `simd-matrix` stage iterates.
fn cpu_features(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--list") {
        for l in sciml_simd::supported_levels() {
            println!("{}", l.name());
        }
        return Ok(());
    }
    println!("detected tier:   {}", sciml_simd::detected_level().name());
    println!(
        "supported tiers: {}",
        sciml_simd::supported_levels()
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    match sciml_simd::env_request() {
        None => println!("{}:      unset", sciml_simd::SIMD_ENV),
        Some(raw) => match sciml_simd::env_level() {
            Some(lvl) => println!("{}={raw} -> {}", sciml_simd::SIMD_ENV, lvl.name()),
            None => println!(
                "{}={raw} -> unrecognized value, detection wins",
                sciml_simd::SIMD_ENV
            ),
        },
    }
    println!("active tier:     {}", sciml_simd::active_level().name());
    println!("crc32 kernel:    {}", sciml_compress::crc32::kernel_name());
    println!("kernel paths:");
    for p in sciml_simd::kernel_plan() {
        println!(
            "  {:<13} {:<22} {:<7} {}",
            p.kernel.name(),
            p.stage,
            p.level.name(),
            p.strategy
        );
    }
    Ok(())
}

/// Scrapes a metrics endpoint once, validates the exposition parses,
/// and optionally checks that required metric families are present —
/// the CI self-check for `sciml serve --metrics-addr`.
fn scrape(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr").ok_or("--addr HOST:PORT required")?;
    let body = sciml_serve::scrape_once(&addr).map_err(|e| format!("scrape {addr}: {e}"))?;
    let parsed = sciml_obs::parse_prometheus(&body)
        .map_err(|e| format!("{addr}: invalid Prometheus exposition: {e}"))?;
    let families = parsed.types.len();
    let samples = parsed.samples.len();
    if let Some(required) = flag(args, "--require") {
        for fam in required.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            if parsed.kind(fam).is_none() {
                return Err(format!(
                    "{addr}: required metric family `{fam}` missing from scrape"
                ));
            }
        }
    }
    println!("{addr}: OK — {families} metric families, {samples} samples");
    if let Some(out) = flag(args, "--out") {
        std::fs::write(&out, &body).map_err(|e| format!("write {out}: {e}"))?;
        println!("exposition written to {out}");
    }
    Ok(())
}

// -------------------------------------------------------------------

fn pack(args: &[String]) -> Result<(), String> {
    let dir = flag(args, "--dir").ok_or("--dir DIR required")?;
    let n: usize = flag_parse(args, "--n", 0)?;
    if n == 0 {
        return Err("--n N (number of samples in DIR) required".into());
    }
    let out = flag(args, "--out").ok_or("--out DIR required")?;
    let shard_mb: u64 = flag_parse(args, "--shard-mb", 64)?;
    let encoding = encoding_flag(args)?.unwrap_or(EncodingChoice::Raw);

    let source = DirSource::open(&dir, n);
    let t0 = Instant::now();
    let manifest = pack_store(
        &source,
        Path::new(&out),
        PackConfig {
            target_shard_bytes: shard_mb << 20,
            encoding,
            ..PackConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    println!(
        "packed {} samples into {} shard(s), {} bytes ({encoding}) in {:.2} s -> {out}",
        manifest.total_samples(),
        manifest.shards.len(),
        manifest.total_bytes(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Parses `--encoding raw|gzip|auto`; `None` when the flag is absent.
fn encoding_flag(args: &[String]) -> Result<Option<EncodingChoice>, String> {
    flag(args, "--encoding")
        .map(|name| name.parse().map_err(|e| format!("--encoding: {e}")))
        .transpose()
}

fn stage(args: &[String]) -> Result<(), String> {
    let out = flag(args, "--out").ok_or("--out DIR required")?;
    let workers: usize = flag_parse(args, "--workers", 2)?;
    let per_shard: u64 = flag_parse(args, "--per-shard", 0)?;
    // No flag = None: mirror each plan's own encoding (the server
    // reports its store's real per-shard choice).
    let encoding = encoding_flag(args)?;

    let (backing, plans): (Arc<dyn SampleSource>, Vec<sciml_store::ShardPlan>) =
        if let Some(list) = flag(args, "--addr") {
            // Each entry is a seed, tried in turn. The first that answers
            // describes the dataset — its shards and their placement, a
            // server without cluster config being a cluster of one — and
            // staging goes through a replica-failover source: a node
            // dying mid-stage costs retries, not the run.
            let name = flag(args, "--name").unwrap_or_else(|| "default".into());
            let mut src = None;
            let mut last_err = String::from("--addr list is empty");
            for seed in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                match ClusterSource::connect(seed, &name) {
                    Ok(s) => {
                        src = Some(s);
                        break;
                    }
                    Err(e) => last_err = format!("{seed}: {e}"),
                }
            }
            let src = src.ok_or(format!("no seed reachable ({last_err})"))?;
            let plan = src.plan();
            let plans: Vec<sciml_store::ShardPlan> = plan.shards.iter().map(|a| a.plan).collect();
            println!(
                "staging '{name}' from {} node(s) (replication {}): {} samples in {} shard(s)",
                plan.nodes.len(),
                plan.replication,
                src.len(),
                plans.len()
            );
            (Arc::new(src), plans)
        } else {
            let dir = flag(args, "--dir")
                .ok_or("--addr HOST:PORT[,HOST:PORT...] or --dir DIR required")?;
            if Path::new(&dir).join(sciml_store::MANIFEST_FILE).exists() {
                // A packed store: stage it shard for shard, by its own
                // manifest.
                let store = ShardSource::open(&dir).map_err(|e| format!("{dir}: {e}"))?;
                let plans = store.manifest().plans();
                println!(
                    "staging packed store {dir}: {} samples in {} shard(s)",
                    store.len(),
                    plans.len()
                );
                (Arc::new(store), plans)
            } else {
                let n: usize = flag_parse(args, "--n", 0)?;
                if n == 0 {
                    return Err("--n N (number of samples in DIR) required".into());
                }
                let src = DirSource::open(&dir, n);
                src.fetch(0)
                    .map_err(|e| format!("cannot read sample 0 from {dir}: {e}"))?;
                let per = if per_shard == 0 { 64 } else { per_shard };
                println!("staging {n} samples from {dir} in shards of {per}");
                (Arc::new(src), plan_by_count(n as u64, per))
            }
        };

    let stager = Stager::new(
        backing,
        plans,
        &out,
        StagerConfig {
            workers,
            encoding,
            ..StagerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let resumed = stager.progress().staged_shards;
    if resumed > 0 {
        println!("resuming: {resumed} shard(s) already staged in {out}");
    }
    let t0 = Instant::now();
    stager.spawn_workers();
    let p = stager.join().map_err(|e| e.to_string())?;
    println!(
        "staged {}/{} shard(s) ({} bytes; {} entries copied as stored, {} re-encoded) in {:.2} s -> {out}",
        p.staged_shards,
        p.total_shards,
        p.staged_bytes,
        p.verbatim_entries,
        p.reencoded_entries,
        t0.elapsed().as_secs_f64()
    );
    if p.failed_shards > 0 {
        return Err(format!(
            "{} shard(s) failed; re-run the same command to retry them",
            p.failed_shards
        ));
    }
    Ok(())
}

fn verify_store(args: &[String]) -> Result<(), String> {
    let dirs = positional_files(args);
    let dir = dirs.first().ok_or("verify-store needs a store directory")?;
    let store = ShardSource::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let samples = store
        .verify()
        .map_err(|e| format!("{}: FAILED — {e}", dir.display()))?;
    // Tally each entry's payload encoding straight from the shard
    // footers, so mixed raw/gzip/pack stores report what is actually
    // on disk (the manifest only records the pack-time policy).
    let mut counts = EncodingCounts::default();
    for meta in &store.manifest().shards {
        let reader =
            ShardReader::open(dir.join(&meta.file)).map_err(|e| format!("{}: {e}", meta.file))?;
        counts.merge(reader.encoding_counts());
    }
    println!(
        "{}: OK — {} shard(s), {samples} samples, {} bytes, every CRC verified in {:.2} s",
        dir.display(),
        store.manifest().shards.len(),
        store.manifest().total_bytes(),
        t0.elapsed().as_secs_f64()
    );
    println!("  payload encodings: {counts}");
    Ok(())
}

// -------------------------------------------------------------------

/// Prints the consistent-hash placement a cluster computes — either
/// offline from a node list (`--nodes A,B,C --n N`), to preview how a
/// dataset will spread before any server starts, or live from a running
/// member (`--addr`), to see the placement clients actually route by.
fn cluster_plan(args: &[String]) -> Result<(), String> {
    let plan: ClusterPlan = if let Some(addr) = flag(args, "--addr") {
        let name = flag(args, "--name").unwrap_or_else(|| "default".into());
        let src = RemoteSource::connect(&addr, &name).map_err(|e| e.to_string())?;
        src.plan().clone()
    } else if let Some(list) = flag(args, "--nodes") {
        let nodes: Vec<String> = list
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let n: u64 = flag_parse(args, "--n", 0)?;
        if n == 0 {
            return Err("--n N (number of samples to place) required with --nodes".into());
        }
        let per_shard: u64 = flag_parse(args, "--per-shard", 64)?;
        let replication: u16 = flag_parse(args, "--replication", 2)?;
        ClusterPlan::assign(&plan_by_count(n, per_shard), &nodes, replication)
    } else {
        return Err("cluster-plan needs --nodes A,B,C --n N or --addr HOST:PORT".into());
    };
    plan.validate()
        .map_err(|e| format!("invalid cluster plan: {e}"))?;

    println!(
        "{} node(s), replication {}, {} shard(s):",
        plan.nodes.len(),
        plan.replication,
        plan.shards.len()
    );
    const MAX_LISTED: usize = 64;
    for a in plan.shards.iter().take(MAX_LISTED) {
        let replicas: Vec<&str> = a
            .replicas
            .iter()
            .filter_map(|&r| plan.nodes.get(r as usize).map(String::as_str))
            .collect();
        println!(
            "  shard {:>4}  [{:>8}, {:>8})  {}",
            a.plan.id,
            a.plan.first,
            a.plan.first + a.plan.count,
            replicas.join(" -> ")
        );
    }
    if plan.shards.len() > MAX_LISTED {
        println!("  ... ({} more shards)", plan.shards.len() - MAX_LISTED);
    }
    println!("per-node load:");
    for (node, load) in plan.nodes.iter().zip(plan.balance()) {
        println!(
            "  {node}  {} primaries / {} replicas / {} bytes",
            load.primaries, load.shards, load.bytes
        );
    }
    Ok(())
}

/// Holds `--conns` loopback connections open against one server *at the
/// same time* (a barrier gates the fetch phase on every socket being
/// admitted), then runs `--fetches` single-sample requests per
/// connection and reports the latency tail. The CI soak stage runs this
/// at 512+ connections against the reactor engine.
fn soak(args: &[String]) -> Result<(), String> {
    use sciml_serve::protocol as proto;

    let addr = flag(args, "--addr").ok_or("--addr HOST:PORT required")?;
    let name = flag(args, "--name").unwrap_or_else(|| "default".into());
    let conns: usize = flag_parse(args, "--conns", 512)?;
    let fetches: u64 = flag_parse(args, "--fetches", 4)?;
    if conns == 0 {
        return Err("--conns must be at least 1".into());
    }

    // One scout request up front: dataset length for index wrapping,
    // and a fail-fast on a bad address or name.
    let len = {
        let scout = RemoteSource::connect(&addr, &name).map_err(|e| e.to_string())?;
        scout.len() as u64
    };
    if len == 0 {
        return Err(format!("dataset '{name}' on {addr} is empty"));
    }

    let barrier = Arc::new(std::sync::Barrier::new(conns));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            let addr = addr.clone();
            let name = name.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> Result<Vec<u64>, String> {
                let mut stream = std::net::TcpStream::connect(&addr)
                    .map_err(|e| format!("conn {c}: connect: {e}"))?;
                stream.set_nodelay(true).ok();
                stream
                    .set_read_timeout(Some(std::time::Duration::from_secs(60)))
                    .ok();
                proto::write_message(
                    &mut stream,
                    &proto::Message::Hello {
                        version: proto::PROTOCOL_VERSION,
                    },
                )
                .map_err(|e| format!("conn {c}: hello: {e}"))?;
                match proto::read_message(&mut stream) {
                    Ok(proto::Message::HelloAck { .. }) => {}
                    Ok(other) => {
                        return Err(format!("conn {c}: unexpected hello reply: {other:?}"))
                    }
                    Err(e) => return Err(format!("conn {c}: hello reply: {e}")),
                }
                // Every socket is admitted and negotiated before any
                // fetch starts: the server really holds `conns` live
                // connections at once.
                barrier.wait();
                let mut lat_ns = Vec::with_capacity(fetches as usize);
                for k in 0..fetches {
                    let idx = (c as u64 + k * 31) % len;
                    let t = Instant::now();
                    proto::write_message(
                        &mut stream,
                        &proto::Message::FetchSamples {
                            name: name.clone(),
                            indices: vec![idx],
                        },
                    )
                    .map_err(|e| format!("conn {c}: fetch {idx}: {e}"))?;
                    match proto::read_message(&mut stream) {
                        Ok(proto::Message::Samples(p)) if p.len() == 1 => {}
                        Ok(other) => {
                            return Err(format!("conn {c}: unexpected fetch reply: {other:?}"))
                        }
                        Err(e) => return Err(format!("conn {c}: fetch reply: {e}")),
                    }
                    lat_ns.push(t.elapsed().as_nanos() as u64);
                }
                Ok(lat_ns)
            })
        })
        .collect();

    let mut lat_ns = Vec::with_capacity(conns * fetches as usize);
    let mut failures = Vec::new();
    for w in workers {
        match w.join() {
            Ok(Ok(lat)) => lat_ns.extend(lat),
            Ok(Err(e)) => failures.push(e),
            Err(_) => failures.push("soak worker panicked".into()),
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    lat_ns.sort_unstable();
    let pct = |p: f64| -> f64 {
        if lat_ns.is_empty() {
            return 0.0;
        }
        let i = ((lat_ns.len() - 1) as f64 * p).round() as usize;
        lat_ns[i.min(lat_ns.len() - 1)] as f64 / 1e3
    };
    println!(
        "soak: {conns} concurrent connections x {fetches} fetches against {addr} in {dt:.2} s",
    );
    if !lat_ns.is_empty() {
        println!(
            "  fetch latency: p50 {:.1} µs / p95 {:.1} µs / p99 {:.1} µs / max {:.1} µs",
            pct(0.50),
            pct(0.95),
            pct(0.99),
            pct(1.0)
        );
    }
    if failures.is_empty() {
        println!("  all connections negotiated, fetched, and closed cleanly");
        Ok(())
    } else {
        for f in failures.iter().take(5) {
            eprintln!("  FAIL: {f}");
        }
        Err(format!(
            "{} of {conns} soak connections failed",
            failures.len()
        ))
    }
}

// -------------------------------------------------------------------

/// Parses a file as one JSON document with the std-only JSON parser
/// (a Chrome trace or an attribution report; metrics are Prometheus
/// text, which `sciml scrape` checks).
fn validate_json(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path:?}: {e}"))?;
    sciml_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}: OK", path.display());
    Ok(())
}
