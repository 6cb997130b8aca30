#include "tools/cli.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <thread>

#include "common/string_util.h"
#include "core/driver.h"
#include "cwin/continuous_session.h"
#include "kernels/kernels.h"
#include "ingest/event_log.h"
#include "ingest/ingest_session.h"
#include "obs/flightrec.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/query_log.h"
#include "serve/serve_session.h"
#include "stream/generator.h"
#include "tensor/checkpoint.h"
#include "tensor/io.h"

namespace dismastd {
namespace cli {

std::string Args::Get(const std::string& key,
                      const std::string& fallback) const {
  std::string value = fallback;
  for (const auto& [k, v] : flags) {
    if (k == key) value = v;
  }
  return value;
}

bool Args::Has(const std::string& key) const {
  for (const auto& [k, v] : flags) {
    if (k == key) return true;
  }
  return false;
}

Result<Args> ParseArgs(int argc, const char* const* argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      return Status::InvalidArgument("expected --flag, got: " + token);
    }
    token = token.substr(2);
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      args.flags.emplace_back(token.substr(0, eq), token.substr(eq + 1));
    } else {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag --" + token + " needs a value");
      }
      args.flags.emplace_back(token, argv[++i]);
    }
  }
  return args;
}

Result<std::vector<uint64_t>> ParseDims(const std::string& text) {
  const char delim = text.find('x') != std::string::npos ? 'x' : ',';
  std::vector<uint64_t> dims;
  for (const std::string& part : SplitString(text, delim)) {
    uint64_t value = 0;
    DISMASTD_RETURN_IF_ERROR(ParseU64(part, &value));
    if (value == 0) return Status::InvalidArgument("zero dim");
    dims.push_back(value);
  }
  if (dims.empty()) return Status::InvalidArgument("empty dims");
  return dims;
}

Result<std::vector<double>> ParseDoubleList(const std::string& text) {
  std::vector<double> values;
  for (const std::string& part : SplitString(text, ',')) {
    double value = 0.0;
    DISMASTD_RETURN_IF_ERROR(ParseDouble(part, &value));
    values.push_back(value);
  }
  return values;
}

namespace {

Result<uint64_t> GetU64(const Args& args, const std::string& key,
                        uint64_t fallback) {
  if (!args.Has(key)) return fallback;
  uint64_t value = 0;
  DISMASTD_RETURN_IF_ERROR(ParseU64(args.Get(key), &value));
  return value;
}

Result<double> GetDouble(const Args& args, const std::string& key,
                         double fallback) {
  if (!args.Has(key)) return fallback;
  double value = 0.0;
  DISMASTD_RETURN_IF_ERROR(ParseDouble(args.Get(key), &value));
  return value;
}

Result<bool> GetBool(const Args& args, const std::string& key,
                     bool fallback) {
  if (!args.Has(key)) return fallback;
  const std::string value = args.Get(key);
  if (value == "on" || value == "true" || value == "1") return true;
  if (value == "off" || value == "false" || value == "0") return false;
  return Status::InvalidArgument("--" + key + " expects on or off, got '" +
                                 value + "'");
}

Result<DecompositionOptions> GetAlsOptions(const Args& args) {
  DecompositionOptions options;
  Result<uint64_t> rank = GetU64(args, "rank", options.rank);
  if (!rank.ok()) return rank.status();
  options.rank = static_cast<size_t>(rank.value());
  Result<uint64_t> iters = GetU64(args, "iterations", options.max_iterations);
  if (!iters.ok()) return iters.status();
  options.max_iterations = static_cast<size_t>(iters.value());
  Result<double> mu = GetDouble(args, "mu", options.mu);
  if (!mu.ok()) return mu.status();
  options.mu = mu.value();
  Result<uint64_t> seed = GetU64(args, "seed", options.seed);
  if (!seed.ok()) return seed.status();
  options.seed = seed.value();
  Result<double> tol = GetDouble(args, "tolerance", options.tolerance);
  if (!tol.ok()) return tol.status();
  options.tolerance = tol.value();
  DISMASTD_RETURN_IF_ERROR(options.Validate());
  return options;
}

Status CmdGenerate(const Args& args, std::ostream& out) {
  const std::string output = args.Get("output");
  if (output.empty()) return Status::InvalidArgument("generate needs --output");
  Result<std::vector<uint64_t>> dims = ParseDims(args.Get("dims", "100x100x100"));
  if (!dims.ok()) return dims.status();

  GeneratorOptions gen;
  gen.dims = dims.value();
  Result<uint64_t> nnz = GetU64(args, "nnz", 10000);
  if (!nnz.ok()) return nnz.status();
  gen.nnz = nnz.value();
  if (args.Has("zipf")) {
    Result<std::vector<double>> zipf = ParseDoubleList(args.Get("zipf"));
    if (!zipf.ok()) return zipf.status();
    if (zipf.value().size() != gen.dims.size()) {
      return Status::InvalidArgument("--zipf needs one exponent per mode");
    }
    gen.zipf_exponents = zipf.value();
  }
  Result<uint64_t> rank = GetU64(args, "rank", 0);
  if (!rank.ok()) return rank.status();
  gen.latent_rank = static_cast<size_t>(rank.value());
  Result<double> noise = GetDouble(args, "noise", 0.0);
  if (!noise.ok()) return noise.status();
  gen.noise_stddev = noise.value();
  Result<uint64_t> seed = GetU64(args, "seed", 42);
  if (!seed.ok()) return seed.status();
  gen.seed = seed.value();

  const GeneratedTensor g = GenerateSparseTensor(gen);
  DISMASTD_RETURN_IF_ERROR(WriteTensorTextFile(g.tensor, output));
  out << "wrote " << g.tensor.nnz() << " non-zeros to " << output << "\n";
  return Status::OK();
}

void PrintFactorSummary(const KruskalTensor& factors, std::ostream& out) {
  out << "order   : " << factors.order() << "\n";
  out << "rank    : " << factors.rank() << "\n";
  out << "dims    :";
  for (uint64_t d : factors.dims()) out << " " << d;
  out << "\nnorm^2  : " << factors.NormSquaredViaGrams() << "\n";
}

/// `info` on a binary artifact: print its metadata instead of feeding
/// checkpoint bytes to the text-tensor parser (which would fail opaquely
/// with a parse error on line 1).
Status CmdInfoCheckpoint(const std::string& path, CheckpointFileKind kind,
                         std::ostream& out) {
  if (kind == CheckpointFileKind::kStreamCheckpoint) {
    Result<StreamCheckpoint> checkpoint = ReadStreamCheckpointFile(path);
    if (!checkpoint.ok()) return checkpoint.status();
    out << "file    : streaming checkpoint (DCKP)\n";
    out << "version : " << checkpoint.value().format_version << "\n";
    out << "step    : " << checkpoint.value().step << "\n";
    PrintFactorSummary(checkpoint.value().factors, out);
    return Status::OK();
  }
  Result<KruskalTensor> factors = ReadKruskalFile(path);
  if (!factors.ok()) return factors.status();
  out << "file    : Kruskal factors (KRSK)\n";
  PrintFactorSummary(factors.value(), out);
  return Status::OK();
}

/// `info` on a TEVT event log: record census, event-time span, dims
/// high-water — the stream-shaped counterpart of the tensor summary.
Status CmdInfoEventLog(const std::string& path, std::ostream& out) {
  Result<ingest::EventLogInfo> info = ingest::SummarizeEventLogFile(path);
  if (!info.ok()) return info.status();
  const ingest::EventLogInfo& i = info.value();
  out << "file    : event log (TEVT)\n";
  out << "order   : " << i.order << "\n";
  out << "records : " << FormatWithCommas(i.slots);
  if (i.truncated) {
    out << " (declared " << FormatWithCommas(i.declared_records)
        << " — truncated)";
  }
  out << "\nevents  : " << FormatWithCommas(i.events) << "\n";
  out << "barriers: " << FormatWithCommas(i.barriers) << "\n";
  if (i.quarantined > 0) {
    out << "quarantined: " << FormatWithCommas(i.quarantined) << "\n";
  }
  if (i.events + i.barriers > 0) {
    // The span is what --horizon and the continuous mode's --window are
    // sized against, so print it without requiring a replay.
    out << "time    : [" << i.min_ts << ", " << i.max_ts << "] ticks (span "
        << (i.max_ts - i.min_ts) << ")\n";
  }
  out << "dims    :";
  for (uint64_t d : i.dims_high_water) out << " " << d;
  out << " (high-water)\n";
  return Status::OK();
}

Status CmdInfo(const Args& args, std::ostream& out) {
  out << "kernels : " << kernels::DispatchExplanation() << "\n";
  const std::string input = args.Get("input");
  Result<bool> is_event_log = ingest::IsEventLogFile(input);
  if (!is_event_log.ok()) return is_event_log.status();
  if (is_event_log.value()) return CmdInfoEventLog(input, out);
  Result<CheckpointFileKind> kind = SniffCheckpointFile(input);
  if (!kind.ok()) return kind.status();
  if (kind.value() != CheckpointFileKind::kNotACheckpoint) {
    return CmdInfoCheckpoint(input, kind.value(), out);
  }
  Result<SparseTensor> tensor = ReadTensorTextFile(input);
  if (!tensor.ok()) return tensor.status();
  const SparseTensor& t = tensor.value();
  out << "order   : " << t.order() << "\n";
  out << "dims    :";
  for (uint64_t d : t.dims()) out << " " << d;
  out << "\nnnz     : " << FormatWithCommas(t.nnz()) << "\n";
  out << "norm^2  : " << t.NormSquared() << "\n";
  double total_cells = 1.0;
  for (uint64_t d : t.dims()) total_cells *= static_cast<double>(d);
  out << "density : " << static_cast<double>(t.nnz()) / total_cells << "\n";
  for (size_t mode = 0; mode < t.order(); ++mode) {
    const auto counts = t.SliceNnzCounts(mode);
    uint64_t max_count = 0, used = 0;
    for (uint64_t c : counts) {
      max_count = std::max(max_count, c);
      used += c > 0 ? 1 : 0;
    }
    out << "mode " << mode << "  : " << used << "/" << counts.size()
        << " slices non-empty, heaviest slice " << max_count << " nnz\n";
  }
  return Status::OK();
}

Status CmdDecompose(const Args& args, std::ostream& out) {
  Result<SparseTensor> tensor = ReadTensorTextFile(args.Get("input"));
  if (!tensor.ok()) return tensor.status();
  Result<DecompositionOptions> options = GetAlsOptions(args);
  if (!options.ok()) return options.status();

  const AlsResult result = CpAls(tensor.value(), options.value());
  out << "iterations : " << result.iterations << "\n";
  out << "loss       :";
  for (double loss : result.loss_history) out << " " << loss;
  out << "\nfit        : " << result.factors.Fit(tensor.value()) << "\n";
  const std::string factors_path = args.Get("factors");
  if (!factors_path.empty()) {
    DISMASTD_RETURN_IF_ERROR(
        WriteKruskalFile(result.factors, factors_path));
    out << "factors    : written to " << factors_path << "\n";
  }
  return Status::OK();
}

Result<DistributedOptions> GetDistributedOptions(const Args& args) {
  Result<DecompositionOptions> als = GetAlsOptions(args);
  if (!als.ok()) return als.status();

  DistributedOptions options;
  options.als = als.value();
  Result<uint64_t> workers = GetU64(args, "workers", 8);
  if (!workers.ok()) return workers.status();
  options.num_workers = static_cast<uint32_t>(workers.value());
  Result<uint64_t> parts = GetU64(args, "parts", 0);
  if (!parts.ok()) return parts.status();
  options.parts_per_mode = static_cast<uint32_t>(parts.value());
  Result<uint64_t> threads = GetU64(args, "threads", 0);
  if (!threads.ok()) return threads.status();
  options.execution.num_threads = static_cast<size_t>(threads.value());
  Result<PartitionerKind> partitioner =
      ParsePartitionerKind(args.Get("partitioner", "mtp"));
  if (!partitioner.ok()) return partitioner.status();
  options.partitioner = partitioner.value();

  // Fault-tolerance knobs: --fault-plan gives the compact spec; the
  // individual flags override its fields.
  if (args.Has("fault-plan")) {
    Result<FaultPlan> plan = ParseFaultPlan(args.Get("fault-plan"));
    if (!plan.ok()) return plan.status();
    options.fault_plan = plan.value();
  }
  Result<double> drop =
      GetDouble(args, "drop-prob", options.fault_plan.drop_prob);
  if (!drop.ok()) return drop.status();
  options.fault_plan.drop_prob = drop.value();
  Result<double> corrupt =
      GetDouble(args, "corrupt-prob", options.fault_plan.corrupt_prob);
  if (!corrupt.ok()) return corrupt.status();
  options.fault_plan.corrupt_prob = corrupt.value();
  Result<double> delay =
      GetDouble(args, "delay-prob", options.fault_plan.delay_prob);
  if (!delay.ok()) return delay.status();
  options.fault_plan.delay_prob = delay.value();
  if (args.Has("crash-worker")) {
    Result<uint64_t> crash_worker = GetU64(args, "crash-worker", 0);
    if (!crash_worker.ok()) return crash_worker.status();
    options.fault_plan.crash_worker =
        static_cast<uint32_t>(crash_worker.value());
  }
  if (args.Has("crash-at-step")) {
    Result<uint64_t> crash_step = GetU64(args, "crash-at-step", 0);
    if (!crash_step.ok()) return crash_step.status();
    options.fault_plan.crash_stream_step = crash_step.value();
    // --crash-at-step alone crashes worker 0 there.
    if (!options.fault_plan.HasCrash()) options.fault_plan.crash_worker = 0;
  }
  Result<uint64_t> crash_superstep =
      GetU64(args, "crash-superstep", options.fault_plan.crash_superstep);
  if (!crash_superstep.ok()) return crash_superstep.status();
  options.fault_plan.crash_superstep = crash_superstep.value();
  if (args.Has("recovery")) {
    Result<RecoveryMode> recovery = ParseRecoveryMode(args.Get("recovery"));
    if (!recovery.ok()) return recovery.status();
    options.recovery = recovery.value();
  }
  options.checkpoint_dir = args.Get("checkpoint-dir");

  // Surface option errors here with the Validate message rather than
  // letting the decomposition entry point fail-fast abort.
  DISMASTD_RETURN_IF_ERROR(options.Validate());
  return options;
}

/// Builds the elastic-cluster coordinator requested on the command line,
/// or null when no elastic flag is present. --elastic turns the monitor-
/// triggered repartitioning on; --scale-plan alone runs the worker
/// add/drain schedule over a persistent partition without rebalancing
/// (the skew-drift baseline).
Result<std::unique_ptr<ElasticCoordinator>> MakeElasticCoordinator(
    const Args& args, const DistributedOptions& options) {
  const bool wants = args.Has("elastic") || args.Has("scale-plan") ||
                     args.Has("imbalance-threshold") ||
                     args.Has("rebalance-cooldown");
  if (!wants) return std::unique_ptr<ElasticCoordinator>();
  ElasticOptions elastic_options;
  Result<bool> rebalance = GetBool(args, "elastic", false);
  if (!rebalance.ok()) return rebalance.status();
  elastic_options.rebalance_enabled = rebalance.value();
  Result<double> threshold = GetDouble(args, "imbalance-threshold",
                                       elastic_options.imbalance_threshold);
  if (!threshold.ok()) return threshold.status();
  elastic_options.imbalance_threshold = threshold.value();
  Result<uint64_t> cooldown =
      GetU64(args, "rebalance-cooldown", elastic_options.cooldown_steps);
  if (!cooldown.ok()) return cooldown.status();
  elastic_options.cooldown_steps = static_cast<uint32_t>(cooldown.value());
  if (args.Has("scale-plan")) {
    Result<ScalePlan> plan = ParseScalePlan(args.Get("scale-plan"));
    if (!plan.ok()) return plan.status();
    elastic_options.scale_plan = plan.value();
  }
  DISMASTD_RETURN_IF_ERROR(elastic_options.Validate());
  return std::make_unique<ElasticCoordinator>(
      elastic_options, options.partitioner, options.num_workers,
      options.parts_per_mode);
}

/// Observability sinks requested on the command line. The tracer, the
/// registry, the health monitor and the flight recorder outlive the run
/// they instrument; their files are written once the command's work is
/// done. The flight recorder doubles as the process-wide black box while
/// the sinks are alive, so a DISMASTD_CHECK failure or SIGABRT mid-run
/// still dumps to --flight-out.
struct ObsSinks {
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::MetricRegistry> metrics;
  std::unique_ptr<obs::HealthMonitor> health;
  std::unique_ptr<obs::FlightRecorder> flight;
  std::string trace_path;
  std::string metrics_path;
  std::string flight_path;

  ~ObsSinks() {
    if (flight != nullptr) obs::FlightRecorder::InstallGlobal(nullptr, "");
  }
};

Status SetUpObsSinks(const Args& args, ObsSinks* sinks) {
  sinks->trace_path = args.Get("trace-out");
  sinks->metrics_path = args.Get("metrics-out");
  sinks->flight_path = args.Get("flight-out");
  if (!sinks->trace_path.empty()) {
    obs::TraceDetail detail = obs::TraceDetail::kPhases;
    if (args.Has("trace-detail")) {
      Result<obs::TraceDetail> parsed =
          obs::ParseTraceDetail(args.Get("trace-detail"));
      if (!parsed.ok()) return parsed.status();
      detail = parsed.value();
    }
    sinks->tracer = std::make_unique<obs::Tracer>(detail);
  } else if (args.Has("trace-detail")) {
    return Status::InvalidArgument("--trace-detail needs --trace-out");
  }
  if (!sinks->metrics_path.empty()) {
    sinks->metrics = std::make_unique<obs::MetricRegistry>();
  }
  if (args.Has("slo") || !sinks->flight_path.empty()) {
    // --slo arms the declarative rules; --flight-out alone still gets the
    // default detectors so a post-mortem carries alert context.
    obs::HealthOptions health_options;
    if (args.Has("slo")) {
      Result<std::vector<obs::SloRule>> rules =
          obs::ParseSloSpec(args.Get("slo"));
      if (!rules.ok()) return rules.status();
      health_options.slo = std::move(rules).value();
    }
    sinks->health = std::make_unique<obs::HealthMonitor>(health_options);
  }
  if (!sinks->flight_path.empty()) {
    sinks->flight = std::make_unique<obs::FlightRecorder>();
    obs::FlightRecorder::InstallGlobal(sinks->flight.get(),
                                       sinks->flight_path);
  }
  return Status::OK();
}

/// Points a decomposition's optional sinks at the ones the flags set up.
void AttachObsSinks(const ObsSinks& sinks, DistributedOptions* options) {
  options->tracer = sinks.tracer.get();
  options->metrics = sinks.metrics.get();
  options->health = sinks.health.get();
  options->flight = sinks.flight.get();
}

Status WriteObsSinks(const ObsSinks& sinks, std::ostream& out) {
  if (sinks.tracer != nullptr) {
    DISMASTD_RETURN_IF_ERROR(
        sinks.tracer->WriteChromeTraceFile(sinks.trace_path));
    out << "trace written to " << sinks.trace_path << " ("
        << sinks.tracer->event_count() << " events";
    if (sinks.tracer->dropped_events() > 0) {
      out << ", " << sinks.tracer->dropped_events() << " dropped";
    }
    out << ")\n";
    const obs::HistogramSummary spans =
        obs::Summarize(sinks.tracer->span_duration_nanos(), 1e-3);  // -> us
    if (spans.count > 0) {
      out << "span durations (us): " << obs::FormatSummaryRow(spans) << "\n";
    }
  }
  if (sinks.health != nullptr) {
    if (sinks.metrics != nullptr) {
      sinks.health->PublishTo(sinks.metrics.get());
    }
    const std::string alerts = sinks.health->AlertsToString();
    if (!alerts.empty()) {
      out << alerts;
    } else {
      out << "health alerts: none\n";
    }
  }
  if (sinks.metrics != nullptr) {
    DISMASTD_RETURN_IF_ERROR(
        sinks.metrics->WritePrometheusFile(sinks.metrics_path));
    out << "metrics written to " << sinks.metrics_path << " ("
        << sinks.metrics->NumSeries() << " series)\n";
  }
  if (sinks.flight != nullptr) {
    DISMASTD_RETURN_IF_ERROR(
        sinks.flight->DumpFile(sinks.flight_path, "exit"));
    out << "flight recorder dumped to " << sinks.flight_path << " ("
        << std::min<uint64_t>(sinks.flight->frames_total(),
                              obs::FlightRecorder::kCapacity)
        << " frames)\n";
  }
  return Status::OK();
}

/// Builds the growth-schedule stream from --input/--start/--step/--steps.
Result<StreamingTensorSequence> GetStream(const Args& args) {
  Result<SparseTensor> tensor = ReadTensorTextFile(args.Get("input"));
  if (!tensor.ok()) return tensor.status();
  Result<double> start = GetDouble(args, "start", 0.75);
  if (!start.ok()) return start.status();
  Result<double> step = GetDouble(args, "step", 0.05);
  if (!step.ok()) return step.status();
  Result<uint64_t> steps = GetU64(args, "steps", 6);
  if (!steps.ok()) return steps.status();
  if (start.value() <= 0.0 || start.value() > 1.0 || steps.value() == 0) {
    return Status::InvalidArgument("bad --start/--steps");
  }
  auto schedule = MakeGrowthSchedule(tensor.value().dims(), start.value(),
                                     step.value(),
                                     static_cast<size_t>(steps.value()));
  return StreamingTensorSequence(std::move(tensor).value(),
                                 std::move(schedule));
}

/// Exports the growth-schedule stream of --input as a TEVT event log:
/// each step's relative complement becomes a shuffled burst of timestamped
/// events closed by a barrier declaring the step's dims.
Status CmdExportEvents(const Args& args, std::ostream& out) {
  const std::string output = args.Get("output");
  if (output.empty()) {
    return Status::InvalidArgument("export-events needs --output");
  }
  Result<StreamingTensorSequence> stream = GetStream(args);
  if (!stream.ok()) return stream.status();

  ingest::EventExportOptions export_options;
  Result<uint64_t> seed = GetU64(args, "seed", export_options.seed);
  if (!seed.ok()) return seed.status();
  export_options.seed = seed.value();
  Result<uint64_t> ticks =
      GetU64(args, "ticks", static_cast<uint64_t>(
                                export_options.ticks_per_step));
  if (!ticks.ok()) return ticks.status();
  if (ticks.value() == 0) return Status::InvalidArgument("--ticks must be >= 1");
  export_options.ticks_per_step = static_cast<int64_t>(ticks.value());
  Result<uint64_t> shuffle = GetU64(args, "shuffle", 1);
  if (!shuffle.ok()) return shuffle.status();
  export_options.shuffle = shuffle.value() != 0;
  Result<uint64_t> barriers = GetU64(args, "barriers", 1);
  if (!barriers.ok()) return barriers.status();
  export_options.emit_barriers = barriers.value() != 0;

  const ingest::EventLogWriter log =
      ingest::ExportSequenceAsEvents(stream.value(), export_options);
  DISMASTD_RETURN_IF_ERROR(log.WriteFile(output));
  out << "wrote " << FormatWithCommas(log.num_records()) << " records ("
      << stream.value().num_steps() << " steps, "
      << export_options.ticks_per_step << " ticks/step) to " << output
      << "\n";
  return Status::OK();
}

/// The delivery flags both ingest policies share (--producers,
/// --queue-capacity, --backpressure, --rate) plus --lateness, checked
/// before any producer thread starts.
Status GetPumpFlags(const Args& args, ingest::PumpOptions* pump,
                    int64_t* allowed_lateness_ticks) {
  Result<uint64_t> producers = GetU64(args, "producers", 1);
  if (!producers.ok()) return producers.status();
  if (producers.value() == 0 || producers.value() > ingest::kMaxProducers) {
    return Status::InvalidArgument(
        "--producers must be in [1, " + std::to_string(ingest::kMaxProducers) +
        "], got " + args.Get("producers"));
  }
  pump->num_producers = static_cast<size_t>(producers.value());
  Result<uint64_t> capacity = GetU64(args, "queue-capacity", 1024);
  if (!capacity.ok()) return capacity.status();
  pump->queue_capacity = static_cast<size_t>(capacity.value());
  Result<ingest::BackpressurePolicy> policy =
      ingest::ParseBackpressurePolicy(args.Get("backpressure", "block"));
  if (!policy.ok()) return policy.status();
  pump->backpressure = policy.value();
  Result<double> rate = GetDouble(args, "rate", 0.0);
  if (!rate.ok()) return rate.status();
  if (!(rate.value() >= 0.0)) {
    return Status::InvalidArgument(
        "--rate must be >= 0 events/s (0 = unthrottled), got " +
        args.Get("rate"));
  }
  pump->max_events_per_second = rate.value();
  // Negative = unbounded lateness, so this one parses as a double; the
  // range check keeps the cast to int64 defined.
  Result<double> lateness = GetDouble(args, "lateness", -1.0);
  if (!lateness.ok()) return lateness.status();
  constexpr double kInt64Limit = 9223372036854775808.0;  // 2^63
  if (!(lateness.value() >= -kInt64Limit && lateness.value() < kInt64Limit)) {
    return Status::InvalidArgument(
        "--lateness must be a finite tick count within int64, got " +
        args.Get("lateness"));
  }
  *allowed_lateness_ticks = static_cast<int64_t>(lateness.value());
  return Status::OK();
}

/// The summary lines both ingest policies print after their per-step
/// table: census (`extra_census` adds a policy's own count), queue,
/// freshness and wall time.
void PrintPumpSummary(const ingest::PumpCensus& r, size_t queue_capacity,
                      const std::string& extra_census, std::ostream& out) {
  out << "events  : " << FormatWithCommas(r.events) << " (" << r.duplicates
      << " duplicate, " << r.late_events << " late, " << extra_census
      << r.quarantined << " quarantined)\n";
  out << "queue   : max depth " << r.max_queue_depth << "/" << queue_capacity
      << ", " << r.block_waits << " block waits, " << r.dropped_oldest
      << " dropped, " << r.rejected << " rejected\n";
  const obs::HistogramSummary lat =
      obs::Summarize(*r.event_to_publish_nanos, 1e-3);  // ns -> us
  char line[160];
  std::snprintf(line, sizeof(line),
                "latency : event->publish p50 %.1f us, p95 %.1f us over "
                "%llu events",
                lat.p50, lat.p95, (unsigned long long)lat.count);
  out << line << "\n";
  std::snprintf(line, sizeof(line), "wall    : %.3f s (%.0f events/s)",
                r.wall_seconds,
                r.wall_seconds > 0.0
                    ? static_cast<double>(r.events) / r.wall_seconds
                    : 0.0);
  out << line << "\n";
}

/// Writes --checkpoint (when given) from an ingest replay's final model.
Status WriteIngestCheckpoint(const Args& args, const KruskalTensor& factors,
                             const std::vector<uint64_t>& dims,
                             const std::vector<StreamStepMetrics>& steps,
                             std::ostream& out) {
  const std::string checkpoint_path = args.Get("checkpoint");
  if (checkpoint_path.empty()) return Status::OK();
  StreamCheckpoint checkpoint;
  checkpoint.factors = factors;
  checkpoint.dims = dims;
  checkpoint.step = steps.empty() ? 0 : steps.back().step;
  DISMASTD_RETURN_IF_ERROR(
      WriteStreamCheckpointFile(checkpoint, checkpoint_path));
  out << "checkpoint written to " << checkpoint_path << "\n";
  return Status::OK();
}

/// `stream --ingest LOG --ingest-mode continuous`: replays a TEVT log
/// through the continuous-window pipeline — per-event (or fused-group)
/// factor-row updates on a sliding event-time window with periodic exact
/// DTD stitches — instead of barrier-aligned micro-batch recompute.
Status CmdStreamIngestContinuous(const Args& args,
                                 const DistributedOptions& decompose,
                                 const ingest::EventLogReader& log,
                                 std::ostream& out) {
  cwin::ContinuousSessionOptions session;
  session.decompose = decompose;
  session.compute_fit = true;
  DISMASTD_RETURN_IF_ERROR(
      GetPumpFlags(args, &session, &session.allowed_lateness_ticks));

  Result<uint64_t> fuse = GetU64(args, "fuse-events", 1);
  if (!fuse.ok()) return fuse.status();
  if (fuse.value() == 0) {
    return Status::InvalidArgument("--fuse-events must be >= 1");
  }
  session.fuse_events = static_cast<size_t>(fuse.value());
  Result<uint64_t> window = GetU64(args, "window", 0);
  if (!window.ok()) return window.status();
  session.window.window_ticks = static_cast<int64_t>(window.value());
  Result<cwin::DecayKind> decay =
      cwin::ParseDecayKind(args.Get("decay", "sliding"));
  if (!decay.ok()) return decay.status();
  session.window.decay = decay.value();
  Result<double> lambda =
      GetDouble(args, "decay-lambda", session.window.decay_lambda);
  if (!lambda.ok()) return lambda.status();
  session.window.decay_lambda = lambda.value();
  Result<uint64_t> publish_interval = GetU64(args, "publish-interval", 256);
  if (!publish_interval.ok()) return publish_interval.status();
  if (publish_interval.value() == 0) {
    return Status::InvalidArgument("--publish-interval must be >= 1");
  }
  session.publish_interval_events =
      static_cast<size_t>(publish_interval.value());
  Result<uint64_t> stitch = GetU64(args, "stitch-interval", 0);
  if (!stitch.ok()) return stitch.status();
  session.stitch_interval_events = static_cast<size_t>(stitch.value());

  Result<cwin::ContinuousSessionResult> run =
      cwin::RunContinuousSession(log, session);
  if (!run.ok()) return run.status();
  const cwin::ContinuousSessionResult& r = run.value();

  out << "DisMASTD continuous replay ("
      << cwin::DecayKindName(session.window.decay) << " decay, "
      << session.num_producers << " producer(s), "
      << ingest::BackpressurePolicyName(session.backpressure)
      << " backpressure)\n";
  out << "publish events  window_nnz  dims_0  fit\n";
  char line[160];
  for (const StreamStepMetrics& m : r.steps) {
    std::snprintf(line, sizeof(line), "%-7zu %-7llu %-11llu %-7llu %.4f",
                  m.step, (unsigned long long)m.processed_nnz,
                  (unsigned long long)m.snapshot_nnz,
                  (unsigned long long)(m.dims.empty() ? 0 : m.dims[0]),
                  m.fit);
    out << line << "\n";
  }
  PrintPumpSummary(r, session.queue_capacity, "", out);
  out << "updates : " << FormatWithCommas(r.updates) << " groups, "
      << FormatWithCommas(r.rows_solved) << " rows solved, "
      << FormatWithCommas(r.evicted) << " evicted, " << r.stitches
      << " stitches\n";
  std::snprintf(line, sizeof(line),
                "window  : %llu events retained, last stitch drift %.3e",
                (unsigned long long)r.window_events, r.last_drift);
  out << line << "\n";
  std::snprintf(line, sizeof(line),
                "publishes: %llu, model fingerprint %016llx",
                (unsigned long long)r.publishes,
                (unsigned long long)r.model_fingerprint);
  out << line << "\n";
  return WriteIngestCheckpoint(args, r.factors, r.dims, r.steps, out);
}

/// `stream --ingest LOG --ingest-mode batch` (the default): replays a TEVT
/// log through the live pipeline — producer threads -> bounded queue ->
/// micro-batch delta builder -> DisMASTD — instead of materializing
/// schedule-driven deltas.
Status CmdStreamIngestBatch(const Args& args,
                            const DistributedOptions& decompose,
                            const ingest::EventLogReader& log,
                            std::ostream& out) {
  ingest::IngestSessionOptions session;
  session.decompose = decompose;
  session.compute_fit = true;
  DISMASTD_RETURN_IF_ERROR(GetPumpFlags(
      args, &session, &session.builder.allowed_lateness_ticks));
  Result<uint64_t> batch_events = GetU64(args, "batch-events",
                                         session.builder.max_batch_events);
  if (!batch_events.ok()) return batch_events.status();
  session.builder.max_batch_events =
      static_cast<size_t>(batch_events.value());
  Result<uint64_t> growth = GetU64(args, "growth-limit",
                                   session.builder.max_mode_growth);
  if (!growth.ok()) return growth.status();
  session.builder.max_mode_growth = growth.value();
  Result<uint64_t> horizon = GetU64(args, "horizon", 0);
  if (!horizon.ok()) return horizon.status();
  session.builder.horizon_ticks = static_cast<int64_t>(horizon.value());

  Result<ingest::IngestSessionResult> run =
      ingest::RunIngestSession(log, session);
  if (!run.ok()) return run.status();
  const ingest::IngestSessionResult& r = run.value();

  out << "DisMASTD ingest replay on " << session.decompose.num_workers
      << " workers, " << session.num_producers << " producer(s), "
      << ingest::BackpressurePolicyName(session.backpressure)
      << " backpressure\n";
  out << "batch  reason        batch_nnz  snapshot_nnz  fit\n";
  char line[160];
  for (size_t b = 0; b < r.steps.size(); ++b) {
    const StreamStepMetrics& m = r.steps[b];
    std::snprintf(line, sizeof(line), "%-6zu %-13s %-10llu %-13llu %.4f",
                  m.step, ingest::BatchCloseReasonName(r.close_reasons[b]),
                  (unsigned long long)m.processed_nnz,
                  (unsigned long long)m.snapshot_nnz, m.fit);
    out << line << "\n";
  }
  PrintPumpSummary(r, session.queue_capacity,
                   std::to_string(r.interior_updates) + " interior, ", out);
  std::snprintf(line, sizeof(line), "batches : %zu, fingerprint %016llx",
                r.steps.size(), (unsigned long long)r.batch_fingerprint);
  out << line << "\n";
  return WriteIngestCheckpoint(args, r.factors, r.dims, r.steps, out);
}

/// `stream --ingest LOG`: replays a TEVT log through the ingest policy
/// `--ingest-mode` names (batch or continuous).
Status CmdStreamIngest(const Args& args, std::ostream& out) {
  Result<MethodKind> method = ParseMethodKind(args.Get("method", "dismastd"));
  if (!method.ok()) return method.status();
  if (method.value() != MethodKind::kDisMastd) {
    return Status::InvalidArgument(
        "--ingest replays deltas incrementally; only --method dismastd can "
        "consume them");
  }
  Result<DistributedOptions> options_result = GetDistributedOptions(args);
  if (!options_result.ok()) return options_result.status();
  ObsSinks obs_sinks;
  DISMASTD_RETURN_IF_ERROR(SetUpObsSinks(args, &obs_sinks));
  DistributedOptions decompose = options_result.value();
  AttachObsSinks(obs_sinks, &decompose);

  Result<ingest::EventLogReader> log =
      ingest::EventLogReader::OpenFile(args.Get("ingest"));
  if (!log.ok()) return log.status();

  Result<cwin::IngestMode> mode =
      cwin::ParseIngestMode(args.Get("ingest-mode", "batch"));
  if (!mode.ok()) return mode.status();
  DISMASTD_RETURN_IF_ERROR(
      mode.value() == cwin::IngestMode::kContinuous
          ? CmdStreamIngestContinuous(args, decompose, log.value(), out)
          : CmdStreamIngestBatch(args, decompose, log.value(), out));
  return WriteObsSinks(obs_sinks, out);
}

Status CmdStream(const Args& args, std::ostream& out) {
  if (args.Has("ingest")) return CmdStreamIngest(args, out);
  Result<DistributedOptions> options_result = GetDistributedOptions(args);
  if (!options_result.ok()) return options_result.status();
  DistributedOptions options = options_result.value();
  ObsSinks obs_sinks;
  DISMASTD_RETURN_IF_ERROR(SetUpObsSinks(args, &obs_sinks));
  AttachObsSinks(obs_sinks, &options);
  Result<MethodKind> method_kind = ParseMethodKind(args.Get("method", "dismastd"));
  if (!method_kind.ok()) return method_kind.status();
  const MethodKind method = method_kind.value();

  Result<std::unique_ptr<ElasticCoordinator>> elastic_result =
      MakeElasticCoordinator(args, options);
  if (!elastic_result.ok()) return elastic_result.status();
  std::unique_ptr<ElasticCoordinator> coordinator =
      std::move(elastic_result.value());
  if (coordinator != nullptr && method != MethodKind::kDisMastd) {
    return Status::InvalidArgument(
        "--elastic/--scale-plan need --method dismastd (elastic "
        "coordination is a streaming concern)");
  }
  options.elastic = coordinator.get();

  Result<StreamingTensorSequence> stream_result = GetStream(args);
  if (!stream_result.ok()) return stream_result.status();
  const StreamingTensorSequence& stream = stream_result.value();
  // --checkpoint writes the measured run's final factors.
  const std::string checkpoint_path = args.Get("checkpoint");
  const bool checkpoint = !checkpoint_path.empty() &&
                          method == MethodKind::kDisMastd;
  KruskalTensor final_factors;
  const auto metrics = RunStreamingExperiment(
      stream, method, options, /*compute_fit=*/true,
      [&](const StreamStepMetrics& sm, const KruskalTensor& factors) {
        if (checkpoint && sm.step + 1 == stream.num_steps()) {
          final_factors = factors;
        }
      });

  out << MethodLabel(method, options.partitioner) << " on "
      << options.num_workers << " workers\n";
  out << "kernels : " << kernels::DispatchExplanation() << "\n";
  out << "step  snapshot_nnz  processed_nnz  s/iter(sim)  fit\n";
  char line[128];
  for (const StreamStepMetrics& m : metrics) {
    std::snprintf(line, sizeof(line), "%-5zu %-13llu %-14llu %-12.4f %.4f",
                  m.step, (unsigned long long)m.snapshot_nnz,
                  (unsigned long long)m.processed_nnz,
                  m.sim_seconds_per_iteration, m.fit);
    out << line << "\n";
  }

  // Per-phase simulated-time breakdown across the whole stream.
  double total_s = 0.0, part_s = 0.0, mttkrp_s = 0.0, gram_s = 0.0,
         loss_s = 0.0;
  for (const StreamStepMetrics& m : metrics) {
    total_s += m.sim_seconds_total;
    part_s += m.sim_seconds_partitioning;
    mttkrp_s += m.sim_seconds_mttkrp_update;
    gram_s += m.sim_seconds_gram_reduce;
    loss_s += m.sim_seconds_loss;
  }
  char phase_line[160];
  std::snprintf(phase_line, sizeof(phase_line),
                "sim phases: total %.4fs = partition %.4fs + mttkrp+solve "
                "%.4fs + gram-reduce %.4fs + loss %.4fs + other %.4fs",
                total_s, part_s, mttkrp_s, gram_s, loss_s,
                total_s - part_s - mttkrp_s - gram_s - loss_s);
  out << phase_line << "\n";

  if (coordinator != nullptr) {
    // Elastic rollup: cumulative activity plus the per-step imbalance the
    // monitor saw (max/avg busy seconds).
    double imb_max = 1.0;
    for (const StreamStepMetrics& m : metrics) {
      imb_max = std::max(imb_max, m.load_imbalance);
    }
    char elastic_line[192];
    std::snprintf(elastic_line, sizeof(elastic_line),
                  "elastic : %s peak-imbalance=%.2f repartition %.4fs + "
                  "migrate %.4fs (sim)",
                  coordinator->totals().ToString().c_str(), imb_max,
                  coordinator->totals().repartition_sim_seconds,
                  coordinator->totals().migration_sim_seconds);
    out << elastic_line << "\n";
  }

  // Summarize what the fault layer did, if anything — including the
  // network's CheckNoOrphans diagnostics and retransmission totals.
  RecoveryMetrics fault_totals;
  uint64_t orphans = 0, leaked = 0;
  for (const StreamStepMetrics& m : metrics) {
    fault_totals.Merge(m.recovery);
    orphans += m.orphaned_messages;
    leaked += m.leaked_messages;
  }
  if (fault_totals.Any() || orphans > 0) {
    out << "faults: " << fault_totals.ToString() << "\n";
    out << "  retransmissions: " << fault_totals.retransmissions << " ("
        << fault_totals.retransmitted_bytes << " bytes resent)\n";
    if (orphans > 0) {
      out << "  orphaned-message supersteps: " << orphans << " (" << leaked
          << " messages leaked)\n";
    }
  }

  if (checkpoint) {
    StreamCheckpoint ckpt;
    ckpt.factors = std::move(final_factors);
    ckpt.dims = stream.DimsAt(stream.num_steps() - 1);
    ckpt.step = stream.num_steps() - 1;
    DISMASTD_RETURN_IF_ERROR(WriteStreamCheckpointFile(ckpt, checkpoint_path));
    out << "checkpoint written to " << checkpoint_path << "\n";
  }
  return WriteObsSinks(obs_sinks, out);
}

/// Decompose-and-serve: streams the input tensor through the chosen
/// method, publishing every step's factors into a ModelStore, while client
/// threads replay a synthetic query log against the live store. The
/// decomposition runs on its own thread, so queries overlap with it the
/// same way they would in a deployment.
Status CmdServeBench(const Args& args, std::ostream& out) {
  Result<DistributedOptions> options_result = GetDistributedOptions(args);
  if (!options_result.ok()) return options_result.status();
  DistributedOptions options = options_result.value();
  ObsSinks obs_sinks;
  DISMASTD_RETURN_IF_ERROR(SetUpObsSinks(args, &obs_sinks));
  AttachObsSinks(obs_sinks, &options);
  Result<MethodKind> method_kind =
      ParseMethodKind(args.Get("method", "dismastd"));
  if (!method_kind.ok()) return method_kind.status();

  Result<StreamingTensorSequence> stream_result = GetStream(args);
  if (!stream_result.ok()) return stream_result.status();
  const StreamingTensorSequence& stream = stream_result.value();

  Result<uint64_t> queries = GetU64(args, "queries", 2000);
  if (!queries.ok()) return queries.status();
  Result<uint64_t> clients = GetU64(args, "clients", 4);
  if (!clients.ok()) return clients.status();
  if (clients.value() == 0) {
    return Status::InvalidArgument("serve-bench needs --clients >= 1");
  }
  Result<uint64_t> k = GetU64(args, "k", 10);
  if (!k.ok()) return k.status();
  Result<uint64_t> batch = GetU64(args, "batch", 64);
  if (!batch.ok()) return batch.status();
  Result<uint64_t> keep_depth = GetU64(args, "keep-depth", 4);
  if (!keep_depth.ok()) return keep_depth.status();
  if (keep_depth.value() == 0) {
    return Status::InvalidArgument("serve-bench needs --keep-depth >= 1");
  }
  Result<uint64_t> probes = GetU64(args, "probes", 8);
  if (!probes.ok()) return probes.status();
  Result<uint64_t> bits = GetU64(args, "bits", 64);
  if (!bits.ok()) return bits.status();
  if (bits.value() == 0 || bits.value() > ann::kMaxLshBits) {
    return Status::InvalidArgument("serve-bench needs --bits in [1, " +
                                   std::to_string(ann::kMaxLshBits) + "]");
  }

  serve::ServeSessionOptions session_options;
  session_options.store.keep_depth =
      static_cast<size_t>(keep_depth.value());
  session_options.store.servable.lsh.bits =
      static_cast<size_t>(bits.value());
  session_options.num_query_threads = options.execution.num_threads;
  session_options.tracer = obs_sinks.tracer.get();
  serve::ServeSession session(session_options);

  const std::string warm_path = args.Get("warm-checkpoint");
  if (!warm_path.empty()) {
    Result<uint64_t> version =
        session.WarmStartFromCheckpointFile(warm_path);
    if (version.ok()) {
      out << "warm-started v" << version.value() << " from " << warm_path
          << "\n";
    } else {
      // A missing or corrupt warm checkpoint must not keep the server
      // down — serving starts cold and the first decomposed step
      // publishes the first model.
      out << "warm start skipped (" << version.status().message()
          << "); starting cold\n";
    }
  }

  // The log is generated against the first snapshot's dims, so every
  // query is in bounds for every published version.
  serve::QueryLogOptions log_options;
  log_options.num_queries = queries.value();
  log_options.k = static_cast<size_t>(k.value());
  log_options.batch_size = static_cast<size_t>(batch.value());
  log_options.topk_target_mode = stream.DimsAt(0).size() > 1 ? 1 : 0;
  // The shared Zipf population knobs (same semantics as the bench
  // harnesses, see bench/bench_util.h): query skew and a dedicated query
  // seed independent of the model seed.
  Result<double> zipf_s = GetDouble(args, "zipf-s", log_options.skew);
  if (!zipf_s.ok()) return zipf_s.status();
  log_options.skew = zipf_s.value();
  Result<uint64_t> query_seed = GetU64(args, "query-seed", options.als.seed);
  if (!query_seed.ok()) return query_seed.status();
  log_options.seed = query_seed.value();
  log_options.topk_probes = static_cast<size_t>(probes.value());
  if (args.Has("precision")) {
    Result<serve::Precision> precision =
        serve::ParsePrecision(args.Get("precision"));
    if (!precision.ok()) return precision.status();
    log_options.topk_precision = precision.value();
  }
  if (args.Has("search-mode")) {
    Result<serve::SearchMode> search =
        serve::ParseSearchMode(args.Get("search-mode"));
    if (!search.ok()) return search.status();
    log_options.topk_search = search.value();
  }
  const std::vector<serve::QueryRecord> log =
      serve::GenerateQueryLog(stream.DimsAt(0), log_options);

  // Each publish also feeds the serving-plane p99 (top-K latency so far,
  // ns -> ms) into the health monitor. Wall-clock signal: useful for SLO
  // rules, never part of the determinism contract.
  StreamStepObserver observer = session.PublishObserver();
  if (obs::Active(obs_sinks.health.get())) {
    observer = [publish = session.PublishObserver(),
                health = obs_sinks.health.get(),
                metrics = &session.metrics(),
                tracer = obs_sinks.tracer.get()](
                   const StreamStepMetrics& sm, const KruskalTensor& factors) {
      publish(sm, factors);
      const obs::Pow2Histogram& h =
          metrics->histogram(serve::QueryType::kTopK);
      if (h.Count() > 0) {
        health->Observe(obs::HealthSignal::kServeP99Ms, sm.step,
                        h.Percentile(0.99) * 1e-6, tracer);
      }
    };
  }
  std::thread producer([&] {
    RunStreamingExperiment(stream, method_kind.value(), options,
                           /*compute_fit=*/false, observer);
  });
  // Cold start: hold queries until the first model lands (a server would
  // return FailedPrecondition, which is exactly what the engine does —
  // but the bench wants to measure steady-state latency, not 404s).
  while (session.store().Current() == nullptr) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const serve::ReplayStats stats = serve::ReplayQueryLog(
      session.engine(), log, static_cast<size_t>(clients.value()));
  producer.join();

  out << MethodLabel(method_kind.value(), options.partitioner) << " on "
      << options.num_workers << " workers, " << clients.value()
      << " query clients\n";
  out << "kernels : " << kernels::DispatchExplanation() << "\n";
  out << "topk precision     : "
      << serve::PrecisionName(log_options.topk_precision) << "\n";
  out << "topk search        : "
      << serve::SearchModeName(log_options.topk_search) << " (probes "
      << log_options.topk_probes << ", " << bits.value() << "-bit codes)\n";
  out << "versions published : " << session.store().num_published() << "\n";
  out << "retained versions  :";
  for (uint64_t v : session.store().RetainedVersions()) out << " v" << v;
  out << "\nqueries answered   : " << stats.answered << " (" << stats.failed
      << " failed)\n";

  // Quantized-serving error report: for each published quantized copy,
  // replay a sample of the log's top-K anchors at that precision and
  // compare every returned score against the exact fp64 score of the same
  // candidate (Predict of the completed index tuple). The measured error
  // must sit inside the model's analytic per-query bound.
  if (const auto model = session.store().Current(); model != nullptr) {
    for (const serve::Precision precision :
         {serve::Precision::kBf16, serve::Precision::kInt8}) {
      if (!model->HasPrecision(precision)) continue;
      double max_abs = 0.0, max_rel = 0.0, max_bound = 0.0;
      uint64_t sampled = 0;
      for (const serve::QueryRecord& record : log) {
        if (record.type != serve::QueryType::kTopK) continue;
        if (sampled >= 32) break;
        if (record.topk.target_mode >= model->order() ||
            record.topk.anchor.size() != model->order()) {
          continue;
        }
        Result<serve::TopKResult> quant = model->TopKWithPrecision(
            record.topk.target_mode, record.topk.anchor, record.topk.k,
            precision);
        if (!quant.ok()) continue;
        ++sampled;
        max_bound = std::max(max_bound, quant.value().score_error_bound);
        std::vector<uint64_t> tuple = record.topk.anchor;
        for (const serve::ScoredIndex& item : quant.value().items) {
          tuple[record.topk.target_mode] = item.index;
          const double exact = model->Predict(tuple.data());
          const double err = std::abs(item.score - exact);
          max_abs = std::max(max_abs, err);
          if (exact != 0.0) {
            max_rel = std::max(max_rel, err / std::abs(exact));
          }
        }
      }
      char qline[160];
      std::snprintf(qline, sizeof(qline),
                    "quantized %-4s     : max |dscore| %.3e (bound %.3e), "
                    "max rel %.3e over %llu queries",
                    serve::PrecisionName(precision), max_abs, max_bound,
                    max_rel, (unsigned long long)sampled);
      out << qline << "\n";
    }
  }
  if (const auto model = session.store().Current(); model != nullptr) {
    if (const auto index = model->ann_index(); index != nullptr) {
      out << "ann index          : " << index->hashed_rows()
          << " rows hashed, " << index->reused_rows()
          << " reused across publishes\n";
    }
  }
  out << "\n";
  out << session.metrics().Report().ToString();
  if (obs_sinks.metrics != nullptr) {
    session.metrics().PublishTo(obs_sinks.metrics.get());
    session.store().PublishTo(obs_sinks.metrics.get());
  }
  return WriteObsSinks(obs_sinks, out);
}

Status CmdPartitionStats(const Args& args, std::ostream& out) {
  Result<SparseTensor> tensor = ReadTensorTextFile(args.Get("input"));
  if (!tensor.ok()) return tensor.status();
  std::vector<uint64_t> part_counts = {8, 15, 23};
  if (args.Has("parts")) {
    Result<std::vector<uint64_t>> parsed = ParseDims(args.Get("parts"));
    if (!parsed.ok()) return parsed.status();
    part_counts = parsed.value();
  }
  out << "parts  method  mean_cv_over_modes\n";
  for (uint64_t parts : part_counts) {
    if (parts == 0) return Status::InvalidArgument("zero partition count");
    for (PartitionerKind kind :
         {PartitionerKind::kGreedy, PartitionerKind::kMaxMin}) {
      const TensorPartitioning tp = PartitionTensor(
          kind, tensor.value(), static_cast<uint32_t>(parts));
      char line[64];
      std::snprintf(line, sizeof(line), "%-6llu %-7s %.6f",
                    (unsigned long long)parts, PartitionerKindName(kind),
                    MeanCvOverModes(tp));
      out << line << "\n";
    }
  }
  return Status::OK();
}

}  // namespace

std::string UsageText() {
  return
      "dismastd_cli — distributed multi-aspect streaming tensor "
      "decomposition\n"
      "\n"
      "global flags:\n"
      "  --kernel scalar|avx2|avx512   force the compute-kernel backend\n"
      "                  (default: best CPUID-supported; DISMASTD_KERNEL\n"
      "                  env var overrides the default the same way)\n"
      "\n"
      "commands:\n"
      "  generate        --output F --dims IxJxK --nnz N [--zipf a,b,c]\n"
      "                  [--rank R --noise S] [--seed N]\n"
      "  info            --input F\n"
      "  decompose       --input F [--rank R --iterations N --seed N]\n"
      "                  [--factors OUT.krs]\n"
      "  export-events   --input F --output LOG.tevt\n"
      "                  [--start 0.75 --step 0.05 --steps 6]\n"
      "                  [--ticks 1000] [--shuffle 0|1] [--barriers 0|1]\n"
      "                  [--seed N]\n"
      "  stream          --input F [--method dismastd|dmsmg]\n"
      "                  [--partitioner mtp|gtp] [--workers M] [--parts P]\n"
      "                  [--threads T]  (0 = all cores, 1 = sequential)\n"
      "                  [--start 0.75 --step 0.05 --steps 6]\n"
      "                  [--rank R --mu MU --iterations N]\n"
      "                  [--checkpoint OUT] [--checkpoint-dir DIR]\n"
      "                  [--fault-plan SPEC] [--drop-prob P]\n"
      "                  [--corrupt-prob P] [--delay-prob P]\n"
      "                  [--crash-worker W --crash-at-step T\n"
      "                   --crash-superstep S]\n"
      "                  [--recovery checkpoint|degraded]\n"
      "                  [--elastic on] [--imbalance-threshold X]\n"
      "                  [--rebalance-cooldown STEPS]\n"
      "                  [--scale-plan add=N@S,drain=N@S]\n"
      "                  [--trace-out F.json]\n"
      "                  [--trace-detail steps|phases|workers]\n"
      "                  [--metrics-out F.prom]\n"
      "                  [--slo \"serve_p99_ms<5,imbalance<1.5\"]\n"
      "                  [--flight-out F.json]  (crash flight recorder;\n"
      "                   dumps on crash or at exit)\n"
      "                  live-ingest mode (replaces --input/--start/--step/\n"
      "                  --steps with a TEVT log):\n"
      "                  --ingest LOG.tevt [--producers N]\n"
      "                  [--queue-capacity C]\n"
      "                  [--backpressure block|drop-oldest|reject]\n"
      "                  [--rate EV_PER_S] [--batch-events N]\n"
      "                  [--growth-limit G] [--horizon TICKS]\n"
      "                  [--lateness TICKS]\n"
      "                  [--ingest-mode batch|continuous]  (continuous =\n"
      "                   per-event window updates, no batch barrier)\n"
      "                  continuous-mode flags:\n"
      "                  [--fuse-events N] [--window TICKS]\n"
      "                  [--decay sliding|exponential] [--decay-lambda L]\n"
      "                  [--publish-interval N] [--stitch-interval N]\n"
      "  serve-bench     --input F [stream flags above]\n"
      "                  [--queries N --clients C --k K --batch B]\n"
      "                  [--precision f64|bf16|int8]  (top-K scan factors)\n"
      "                  [--search-mode exact|ann|ann_cached]\n"
      "                  [--probes P]  (ANN shortlist = P * K candidates)\n"
      "                  [--bits B]    (LSH code width per row, 1..4096)\n"
      "                  [--zipf-s S --query-seed N]  (query population)\n"
      "                  [--keep-depth D] [--warm-checkpoint F]\n"
      "                  [--trace-out F.json] [--metrics-out F.prom]\n"
      "                  [--slo SPEC] [--flight-out F.json]\n"
      "  partition-stats --input F [--parts 8x15x23] [--partitioner "
      "mtp|gtp]\n"
      "  help\n";
}

Status RunCli(int argc, const char* const* argv, std::ostream& out) {
  Result<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    out << UsageText();
    return parsed.status();
  }
  const Args& args = parsed.value();
  // Global --kernel override (every command computes through the kernel
  // table): force the backend before any work happens. The environment
  // (DISMASTD_KERNEL) is honored by the default dispatch itself.
  if (args.Has("kernel")) {
    Result<kernels::Backend> backend =
        kernels::ParseBackend(args.Get("kernel"));
    if (!backend.ok()) return backend.status();
    DISMASTD_RETURN_IF_ERROR(kernels::ForceBackend(backend.value()));
  }
  if (args.command == "generate") return CmdGenerate(args, out);
  if (args.command == "info") return CmdInfo(args, out);
  if (args.command == "decompose") return CmdDecompose(args, out);
  if (args.command == "export-events") return CmdExportEvents(args, out);
  if (args.command == "stream") return CmdStream(args, out);
  if (args.command == "serve-bench") return CmdServeBench(args, out);
  if (args.command == "partition-stats") return CmdPartitionStats(args, out);
  out << UsageText();
  if (args.command == "help") return Status::OK();
  return Status::InvalidArgument("unknown command: " + args.command);
}

}  // namespace cli
}  // namespace dismastd
