#include "tools/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "tensor/checkpoint.h"
#include "tensor/io.h"

namespace dismastd {
namespace cli {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFileToString(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Status RunCommand(std::vector<std::string> argv_strings, std::string* output) {
  std::vector<const char*> argv = {"dismastd_cli"};
  for (const auto& s : argv_strings) argv.push_back(s.c_str());
  std::ostringstream os;
  const Status status =
      RunCli(static_cast<int>(argv.size()), argv.data(), os);
  *output = os.str();
  return status;
}

TEST(CliArgsTest, ParseFlagsBothStyles) {
  const char* argv[] = {"bin", "cmd", "--a", "1", "--b=2"};
  Result<Args> args = ParseArgs(5, argv);
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.value().command, "cmd");
  EXPECT_EQ(args.value().Get("a"), "1");
  EXPECT_EQ(args.value().Get("b"), "2");
  EXPECT_EQ(args.value().Get("missing", "x"), "x");
  EXPECT_TRUE(args.value().Has("a"));
  EXPECT_FALSE(args.value().Has("c"));
}

TEST(CliArgsTest, LastOccurrenceWins) {
  const char* argv[] = {"bin", "cmd", "--a=1", "--a=2"};
  EXPECT_EQ(ParseArgs(4, argv).value().Get("a"), "2");
}

TEST(CliArgsTest, RejectsBadFlags) {
  const char* missing_value[] = {"bin", "cmd", "--a"};
  EXPECT_FALSE(ParseArgs(3, missing_value).ok());
  const char* not_a_flag[] = {"bin", "cmd", "positional"};
  EXPECT_FALSE(ParseArgs(3, not_a_flag).ok());
  const char* no_command[] = {"bin"};
  EXPECT_FALSE(ParseArgs(1, no_command).ok());
}

TEST(CliArgsTest, ParseDimsFormats) {
  EXPECT_EQ(ParseDims("4x5x6").value(), (std::vector<uint64_t>{4, 5, 6}));
  EXPECT_EQ(ParseDims("7,8").value(), (std::vector<uint64_t>{7, 8}));
  EXPECT_FALSE(ParseDims("4x0x6").ok());
  EXPECT_FALSE(ParseDims("abc").ok());
}

TEST(CliArgsTest, ParseDoubleList) {
  const auto values = ParseDoubleList("1.5,0,2e-1").value();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 1.5);
  EXPECT_DOUBLE_EQ(values[2], 0.2);
  EXPECT_FALSE(ParseDoubleList("1.5,x").ok());
}

TEST(CliTest, HelpSucceeds) {
  std::string output;
  EXPECT_TRUE(RunCommand({"help"}, &output).ok());
  EXPECT_NE(output.find("generate"), std::string::npos);
  EXPECT_NE(output.find("partition-stats"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  std::string output;
  EXPECT_FALSE(RunCommand({"frobnicate"}, &output).ok());
  EXPECT_NE(output.find("commands"), std::string::npos);
}

TEST(CliTest, GenerateInfoDecomposeStreamPipeline) {
  const std::string tensor_path = TempPath("cli_tensor.tns");
  const std::string factors_path = TempPath("cli_factors.krs");
  const std::string checkpoint_path = TempPath("cli_stream.ckpt");
  std::string output;

  // generate
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims", "40x30x20",
                   "--nnz", "2000", "--rank", "2", "--seed", "5"},
                  &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("wrote"), std::string::npos);

  // info
  ASSERT_TRUE(RunCommand({"info", "--input", tensor_path}, &output).ok());
  EXPECT_NE(output.find("order   : 3"), std::string::npos);
  EXPECT_NE(output.find("dims    : 40 30 20"), std::string::npos);

  // decompose + save factors
  ASSERT_TRUE(RunCommand({"decompose", "--input", tensor_path, "--rank", "3",
                   "--iterations", "5", "--factors", factors_path},
                  &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("fit"), std::string::npos);
  Result<KruskalTensor> factors = ReadKruskalFile(factors_path);
  ASSERT_TRUE(factors.ok());
  EXPECT_EQ(factors.value().rank(), 3u);

  // stream + checkpoint
  ASSERT_TRUE(RunCommand({"stream", "--input", tensor_path, "--workers", "3",
                   "--steps", "3", "--start", "0.7", "--step", "0.15",
                   "--rank", "2", "--iterations", "3", "--checkpoint",
                   checkpoint_path},
                  &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("DisMASTD-MTP"), std::string::npos);
  Result<StreamCheckpoint> checkpoint =
      ReadStreamCheckpointFile(checkpoint_path);
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint.value().step, 2u);
  EXPECT_EQ(checkpoint.value().dims, (std::vector<uint64_t>{40, 30, 20}));

  // partition-stats
  ASSERT_TRUE(RunCommand({"partition-stats", "--input", tensor_path, "--parts",
                   "4,8"},
                  &output)
                  .ok());
  EXPECT_NE(output.find("GTP"), std::string::npos);
  EXPECT_NE(output.find("MTP"), std::string::npos);

  std::remove(tensor_path.c_str());
  std::remove(factors_path.c_str());
  std::remove(checkpoint_path.c_str());
}

TEST(CliTest, InfoDescribesCheckpointAndFactorFiles) {
  const std::string tensor_path = TempPath("cli_info.tns");
  const std::string factors_path = TempPath("cli_info.krs");
  const std::string checkpoint_path = TempPath("cli_info.ckpt");
  std::string output;
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "30x20x10", "--nnz", "800", "--seed", "3"},
                         &output)
                  .ok());
  ASSERT_TRUE(RunCommand({"decompose", "--input", tensor_path, "--rank", "2",
                          "--iterations", "2", "--factors", factors_path},
                         &output)
                  .ok());
  ASSERT_TRUE(RunCommand({"stream", "--input", tensor_path, "--steps", "2",
                          "--rank", "2", "--iterations", "2",
                          "--checkpoint", checkpoint_path},
                         &output)
                  .ok());

  // A streaming checkpoint is recognized and described, not fed to the
  // text-tensor parser.
  ASSERT_TRUE(
      RunCommand({"info", "--input", checkpoint_path}, &output).ok())
      << output;
  EXPECT_NE(output.find("streaming checkpoint"), std::string::npos);
  EXPECT_NE(output.find("version : 1"), std::string::npos);
  EXPECT_NE(output.find("step    : 1"), std::string::npos);
  EXPECT_NE(output.find("rank    : 2"), std::string::npos);
  EXPECT_NE(output.find("order   : 3"), std::string::npos);

  // Same for a bare Kruskal factor file (decomposed from the full
  // tensor, so its dims are the tensor's).
  ASSERT_TRUE(RunCommand({"info", "--input", factors_path}, &output).ok())
      << output;
  EXPECT_NE(output.find("Kruskal factors"), std::string::npos);
  EXPECT_NE(output.find("rank    : 2"), std::string::npos);
  EXPECT_NE(output.find("dims    : 30 20 10"), std::string::npos);

  std::remove(tensor_path.c_str());
  std::remove(factors_path.c_str());
  std::remove(checkpoint_path.c_str());
}

TEST(CliTest, ServeBenchDecomposesAndServes) {
  const std::string tensor_path = TempPath("cli_serve.tns");
  std::string output;
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "40x24x12", "--nnz", "1500", "--rank", "2",
                          "--seed", "11"},
                         &output)
                  .ok());
  ASSERT_TRUE(RunCommand({"serve-bench", "--input", tensor_path, "--workers",
                          "3", "--steps", "3", "--rank", "2", "--iterations",
                          "2", "--queries", "200", "--clients", "2", "--k",
                          "4", "--batch", "16"},
                         &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("versions published : 3"), std::string::npos);
  EXPECT_NE(output.find("queries answered   : 200 (0 failed)"),
            std::string::npos);
  EXPECT_NE(output.find("served per version:"), std::string::npos);
  std::remove(tensor_path.c_str());
}

TEST(CliTest, ServeBenchWarmStartsFromCheckpoint) {
  const std::string tensor_path = TempPath("cli_serve2.tns");
  const std::string checkpoint_path = TempPath("cli_serve2.ckpt");
  std::string output;
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "30x20x10", "--nnz", "800", "--seed", "13"},
                         &output)
                  .ok());
  ASSERT_TRUE(RunCommand({"stream", "--input", tensor_path, "--steps", "2",
                          "--rank", "2", "--iterations", "2",
                          "--checkpoint", checkpoint_path},
                         &output)
                  .ok());
  ASSERT_TRUE(RunCommand({"serve-bench", "--input", tensor_path, "--steps",
                          "2", "--rank", "2", "--iterations", "2",
                          "--queries", "100", "--clients", "2",
                          "--warm-checkpoint", checkpoint_path},
                         &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("warm-started v1"), std::string::npos);
  // 2 streamed steps on top of the warm-start version.
  EXPECT_NE(output.find("versions published : 3"), std::string::npos);
  std::remove(tensor_path.c_str());
  std::remove(checkpoint_path.c_str());
}

TEST(CliTest, ServeBenchValidatesFlags) {
  std::string output;
  EXPECT_FALSE(RunCommand({"serve-bench", "--input", "/nonexistent.tns"},
                          &output)
                   .ok());
  const std::string tensor_path = TempPath("cli_serve3.tns");
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "10x10x10", "--nnz", "100"},
                         &output)
                  .ok());
  EXPECT_FALSE(RunCommand({"serve-bench", "--input", tensor_path,
                           "--clients", "0"},
                          &output)
                   .ok());
  EXPECT_FALSE(RunCommand({"serve-bench", "--input", tensor_path,
                           "--keep-depth", "0"},
                          &output)
                   .ok());
  // Hamming distances are u16: codes wider than 4096 bits are refused.
  const Status too_wide = RunCommand(
      {"serve-bench", "--input", tensor_path, "--bits", "4097"}, &output);
  EXPECT_EQ(too_wide.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_wide.ToString().find("4096"), std::string::npos) << too_wide;
  std::remove(tensor_path.c_str());
}

TEST(CliTest, ServeBenchToleratesMissingOrCorruptWarmCheckpoint) {
  // A broken warm checkpoint must not keep the server down: log and start
  // cold, publishing models as the stream decomposes.
  const std::string tensor_path = TempPath("cli_serve4.tns");
  std::string output;
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "20x15x10", "--nnz", "400", "--seed", "21"},
                         &output)
                  .ok());
  ASSERT_TRUE(RunCommand({"serve-bench", "--input", tensor_path, "--steps",
                          "2", "--rank", "2", "--iterations", "2",
                          "--queries", "50", "--clients", "1",
                          "--warm-checkpoint", "/nonexistent.ckpt"},
                         &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("warm start skipped"), std::string::npos) << output;
  EXPECT_NE(output.find("starting cold"), std::string::npos);
  EXPECT_NE(output.find("versions published : 2"), std::string::npos);

  // Corrupt checkpoint (wrong magic): same tolerant path.
  const std::string garbage_path = TempPath("cli_serve4_garbage.ckpt");
  {
    FILE* f = std::fopen(garbage_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a checkpoint", f);
    std::fclose(f);
  }
  ASSERT_TRUE(RunCommand({"serve-bench", "--input", tensor_path, "--steps",
                          "2", "--rank", "2", "--iterations", "2",
                          "--queries", "50", "--clients", "1",
                          "--warm-checkpoint", garbage_path},
                         &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("warm start skipped"), std::string::npos) << output;
  std::remove(tensor_path.c_str());
  std::remove(garbage_path.c_str());
}

TEST(CliTest, StreamFaultFlagsInjectAndReport) {
  const std::string tensor_path = TempPath("cli_fault.tns");
  std::string output;
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "30x20x10", "--nnz", "800", "--rank", "2",
                          "--seed", "19"},
                         &output)
                  .ok());
  ASSERT_TRUE(RunCommand({"stream", "--input", tensor_path, "--workers", "3",
                          "--steps", "3", "--rank", "2", "--iterations", "3",
                          "--drop-prob", "0.05", "--corrupt-prob", "0.01",
                          "--crash-worker", "1", "--crash-at-step", "1",
                          "--crash-superstep", "8", "--recovery",
                          "degraded"},
                         &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("faults:"), std::string::npos) << output;
  EXPECT_NE(output.find("crashes=1"), std::string::npos) << output;

  // The compact spec form drives the same knobs.
  ASSERT_TRUE(RunCommand({"stream", "--input", tensor_path, "--workers", "3",
                          "--steps", "2", "--rank", "2", "--iterations", "2",
                          "--fault-plan", "drop=0.1,seed=3"},
                         &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("faults:"), std::string::npos) << output;

  // Bad fault settings surface the Validate message.
  EXPECT_FALSE(RunCommand({"stream", "--input", tensor_path, "--drop-prob",
                           "1.5"},
                          &output)
                   .ok());
  EXPECT_FALSE(RunCommand({"stream", "--input", tensor_path, "--fault-plan",
                           "bogus=1"},
                          &output)
                   .ok());
  EXPECT_FALSE(RunCommand({"stream", "--input", tensor_path, "--recovery",
                           "prayer"},
                          &output)
                   .ok());
  std::remove(tensor_path.c_str());
}

TEST(CliTest, StreamElasticFlagsRebalanceAndScale) {
  const std::string tensor_path = TempPath("cli_elastic.tns");
  std::string output;
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "30x20x10", "--nnz", "800", "--rank", "2",
                          "--seed", "21"},
                         &output)
                  .ok());
  // A monitored elastic run with a scale plan completes and reports the
  // rollup: both scale events repartition, so the add and the drain are in
  // the cumulative totals.
  ASSERT_TRUE(RunCommand({"stream", "--input", tensor_path, "--workers", "3",
                          "--steps", "4", "--rank", "2", "--iterations", "3",
                          "--elastic", "on", "--imbalance-threshold", "2.0",
                          "--rebalance-cooldown", "1", "--scale-plan",
                          "add=1@1,drain=1@3"},
                         &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("elastic :"), std::string::npos) << output;
  EXPECT_NE(output.find("workers(add/drain)=1/1"), std::string::npos)
      << output;
  EXPECT_NE(output.find("peak-imbalance="), std::string::npos) << output;

  // --scale-plan alone (no --elastic) executes the schedule without the
  // monitor.
  ASSERT_TRUE(RunCommand({"stream", "--input", tensor_path, "--workers", "3",
                          "--steps", "3", "--rank", "2", "--iterations", "2",
                          "--scale-plan", "add=1@1"},
                         &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("workers(add/drain)=1/0"), std::string::npos)
      << output;

  // Elastic coordination is a streaming (dismastd) concern.
  EXPECT_FALSE(RunCommand({"stream", "--input", tensor_path, "--method",
                           "dmsmg", "--steps", "2", "--rank", "2",
                           "--iterations", "2", "--elastic", "on"},
                          &output)
                   .ok());

  // A bad scale plan surfaces the token-addressed parse diagnostic.
  const Status bad_plan =
      RunCommand({"stream", "--input", tensor_path, "--steps", "2", "--rank",
                  "2", "--scale-plan", "grow=1@2"},
                 &output);
  ASSERT_FALSE(bad_plan.ok());
  EXPECT_NE(bad_plan.message().find("scale plan token 1"), std::string::npos)
      << bad_plan.message();

  // Out-of-range knobs surface ElasticOptions::Validate.
  EXPECT_FALSE(RunCommand({"stream", "--input", tensor_path, "--steps", "2",
                           "--rank", "2", "--elastic", "on",
                           "--imbalance-threshold", "0.5"},
                          &output)
                   .ok());
  std::remove(tensor_path.c_str());
}

TEST(CliTest, StreamWritesTraceAndMetricsFiles) {
  const std::string tensor_path = TempPath("cli_obs.tns");
  const std::string trace_path = TempPath("cli_obs_trace.json");
  const std::string metrics_path = TempPath("cli_obs_metrics.prom");
  std::string output;
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "30x20x10", "--nnz", "800", "--rank", "2",
                          "--seed", "23"},
                         &output)
                  .ok());
  ASSERT_TRUE(RunCommand({"stream", "--input", tensor_path, "--workers", "3",
                          "--steps", "2", "--rank", "2", "--iterations", "3",
                          "--trace-out", trace_path, "--trace-detail",
                          "workers", "--metrics-out", metrics_path},
                         &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("sim phases: total"), std::string::npos);
  EXPECT_NE(output.find("trace written to"), std::string::npos);
  EXPECT_NE(output.find("metrics written to"), std::string::npos);

  const std::string trace = ReadFileToString(trace_path);
  EXPECT_EQ(trace.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_NE(trace.find("\"name\":\"step 0\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"mttkrp_update\""), std::string::npos);
  EXPECT_NE(trace.find("\"worker 2\""), std::string::npos);

  const std::string metrics = ReadFileToString(metrics_path);
  // One shared registry: comm, recovery and core series side by side.
  EXPECT_NE(metrics.find("dismastd_comm_messages_total"), std::string::npos);
  EXPECT_NE(metrics.find("dismastd_comm_message_wire_bytes_bucket"),
            std::string::npos);
  EXPECT_NE(metrics.find("dismastd_recovery_crashes_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("dismastd_core_sim_seconds{phase=\"total\"}"),
            std::string::npos);

  // --trace-detail is only meaningful with --trace-out, and must parse.
  EXPECT_FALSE(RunCommand({"stream", "--input", tensor_path,
                           "--trace-detail", "workers"},
                          &output)
                   .ok());
  EXPECT_FALSE(RunCommand({"stream", "--input", tensor_path, "--trace-out",
                           trace_path, "--trace-detail", "everything"},
                          &output)
                   .ok());
  std::remove(tensor_path.c_str());
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(CliTest, ServeBenchPublishesServeMetrics) {
  const std::string tensor_path = TempPath("cli_obs_serve.tns");
  const std::string trace_path = TempPath("cli_obs_serve_trace.json");
  const std::string metrics_path = TempPath("cli_obs_serve_metrics.prom");
  std::string output;
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "24x16x10", "--nnz", "600", "--rank", "2",
                          "--seed", "29"},
                         &output)
                  .ok());
  ASSERT_TRUE(RunCommand({"serve-bench", "--input", tensor_path, "--steps",
                          "2", "--rank", "2", "--iterations", "2",
                          "--queries", "100", "--clients", "2",
                          "--trace-out", trace_path, "--metrics-out",
                          metrics_path},
                         &output)
                  .ok())
      << output;
  const std::string metrics = ReadFileToString(metrics_path);
  // The decomposition's comm series and the serving plane's query series
  // land in the same registry.
  EXPECT_NE(metrics.find("dismastd_comm_messages_total"), std::string::npos);
  EXPECT_NE(metrics.find("dismastd_serve_queries_total"), std::string::npos);
  EXPECT_NE(metrics.find("dismastd_serve_query_latency_nanoseconds_count"),
            std::string::npos);
  const std::string trace = ReadFileToString(trace_path);
  // Per-query wall spans ride on the wall-clock process.
  EXPECT_NE(trace.find("\"wall clock\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  std::remove(tensor_path.c_str());
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(CliTest, StreamDmsMgAndGtpVariants) {
  const std::string tensor_path = TempPath("cli_tensor2.tns");
  std::string output;
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims", "30x20x10",
                   "--nnz", "800", "--seed", "9"},
                  &output)
                  .ok());
  ASSERT_TRUE(RunCommand({"stream", "--input", tensor_path, "--method", "dmsmg",
                   "--partitioner", "gtp", "--steps", "2", "--iterations",
                   "2", "--rank", "2"},
                  &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("DMS-MG-GTP"), std::string::npos);
  std::remove(tensor_path.c_str());
}

TEST(CliTest, StreamThreadsFlagAccepted) {
  const std::string tensor_path = TempPath("cli_tensor4.tns");
  std::string output;
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "30x20x10", "--nnz", "800", "--seed", "9"},
                         &output)
                  .ok());
  ASSERT_TRUE(RunCommand({"stream", "--input", tensor_path, "--workers", "4",
                          "--threads", "4", "--steps", "2", "--iterations",
                          "2", "--rank", "2"},
                         &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("DisMASTD-MTP"), std::string::npos);
  std::remove(tensor_path.c_str());
}

TEST(CliTest, InvalidOptionsSurfaceValidateMessage) {
  const std::string tensor_path = TempPath("cli_tensor5.tns");
  std::string output;
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "10x10", "--nnz", "50"},
                         &output)
                  .ok());
  // Fail fast with the Validate() message, not a clamp or an abort.
  EXPECT_FALSE(RunCommand({"stream", "--input", tensor_path, "--mu", "2.0"},
                          &output)
                   .ok());
  EXPECT_FALSE(RunCommand({"stream", "--input", tensor_path, "--workers", "0"},
                          &output)
                   .ok());
  EXPECT_FALSE(
      RunCommand({"stream", "--input", tensor_path, "--rank", "0"}, &output)
          .ok());
  std::remove(tensor_path.c_str());
}

TEST(CliTest, ExportEventsInfoAndIngestReplayPipeline) {
  const std::string tensor_path = TempPath("cli_ingest_tensor.tns");
  const std::string log_path = TempPath("cli_ingest_log.tevt");
  const std::string checkpoint_path = TempPath("cli_ingest.ckpt");
  std::string output;

  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "30x20x10", "--nnz", "1200", "--rank", "2",
                          "--seed", "7"},
                         &output)
                  .ok())
      << output;

  // export-events: stream -> shuffled TEVT log.
  ASSERT_TRUE(RunCommand({"export-events", "--input", tensor_path,
                          "--output", log_path, "--steps", "3", "--start",
                          "0.7", "--step", "0.15"},
                         &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("wrote"), std::string::npos);
  EXPECT_NE(output.find("3 steps"), std::string::npos);

  // info sniffs the TEVT container.
  ASSERT_TRUE(RunCommand({"info", "--input", log_path}, &output).ok())
      << output;
  EXPECT_NE(output.find("event log (TEVT)"), std::string::npos);
  EXPECT_NE(output.find("order   : 3"), std::string::npos);
  EXPECT_NE(output.find("barriers: 3"), std::string::npos);
  EXPECT_NE(output.find("dims    : 30 20 10 (high-water)"),
            std::string::npos);
  // The event-time range is what --horizon/--window get sized against.
  EXPECT_NE(output.find("time    : ["), std::string::npos);
  EXPECT_NE(output.find(", 2999] ticks (span "), std::string::npos);

  // stream --ingest replays the log through the live pipeline.
  ASSERT_TRUE(RunCommand({"stream", "--ingest", log_path, "--workers", "2",
                          "--rank", "2", "--iterations", "2", "--producers",
                          "2", "--checkpoint", checkpoint_path},
                         &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("ingest replay"), std::string::npos);
  EXPECT_NE(output.find("barrier"), std::string::npos);
  EXPECT_NE(output.find("fingerprint"), std::string::npos);
  EXPECT_NE(output.find("event->publish"), std::string::npos);
  Result<StreamCheckpoint> checkpoint =
      ReadStreamCheckpointFile(checkpoint_path);
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint.value().dims, (std::vector<uint64_t>{30, 20, 10}));

  std::remove(tensor_path.c_str());
  std::remove(log_path.c_str());
  std::remove(checkpoint_path.c_str());
}

TEST(CliTest, ContinuousIngestReplayPublishesAndCheckpoints) {
  const std::string tensor_path = TempPath("cli_cwin_tensor.tns");
  const std::string log_path = TempPath("cli_cwin_log.tevt");
  const std::string checkpoint_path = TempPath("cli_cwin.ckpt");
  std::string output;

  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "24x18x12", "--nnz", "800", "--rank", "2",
                          "--seed", "9"},
                         &output)
                  .ok())
      << output;
  ASSERT_TRUE(RunCommand({"export-events", "--input", tensor_path,
                          "--output", log_path, "--steps", "3", "--start",
                          "0.7", "--step", "0.15"},
                         &output)
                  .ok())
      << output;

  // Same log, second ingest policy: per-event continuous-window updates.
  ASSERT_TRUE(RunCommand({"stream", "--ingest", log_path, "--ingest-mode",
                          "continuous", "--rank", "2", "--producers", "2",
                          "--fuse-events", "4", "--publish-interval", "64",
                          "--stitch-interval", "400", "--checkpoint",
                          checkpoint_path},
                         &output)
                  .ok())
      << output;
  EXPECT_NE(output.find("continuous replay"), std::string::npos);
  EXPECT_NE(output.find("sliding decay"), std::string::npos);
  EXPECT_NE(output.find("stitches"), std::string::npos);
  EXPECT_NE(output.find("event->publish"), std::string::npos);
  EXPECT_NE(output.find("model fingerprint"), std::string::npos);
  Result<StreamCheckpoint> checkpoint =
      ReadStreamCheckpointFile(checkpoint_path);
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint.value().dims, (std::vector<uint64_t>{24, 18, 12}));

  // Unknown mode strings are rejected up front.
  EXPECT_FALSE(RunCommand({"stream", "--ingest", log_path, "--ingest-mode",
                           "micro"},
                          &output)
                   .ok());

  std::remove(tensor_path.c_str());
  std::remove(log_path.c_str());
  std::remove(checkpoint_path.c_str());
}

TEST(CliTest, IngestFlagsAreValidated) {
  std::string output;
  EXPECT_FALSE(
      RunCommand({"stream", "--ingest", "/nonexistent.tevt"}, &output).ok());
  const std::string tensor_path = TempPath("cli_ingest_tensor2.tns");
  const std::string log_path = TempPath("cli_ingest_log2.tevt");
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "10x10", "--nnz", "60"},
                         &output)
                  .ok());
  EXPECT_FALSE(RunCommand({"export-events", "--input", tensor_path},
                          &output)
                   .ok());  // no --output
  ASSERT_TRUE(RunCommand({"export-events", "--input", tensor_path,
                          "--output", log_path},
                         &output)
                  .ok());
  EXPECT_FALSE(RunCommand({"stream", "--ingest", log_path, "--method",
                           "dms-mg"},
                          &output)
                   .ok());  // only dismastd consumes deltas
  EXPECT_FALSE(RunCommand({"stream", "--ingest", log_path, "--producers",
                           "0"},
                          &output)
                   .ok());
  EXPECT_FALSE(RunCommand({"stream", "--ingest", log_path, "--backpressure",
                           "lossy"},
                          &output)
                   .ok());
  std::remove(tensor_path.c_str());
  std::remove(log_path.c_str());
}

TEST(CliTest, IngestPumpFlagsAreStrict) {
  std::string output;
  const std::string tensor_path = TempPath("cli_pump_tensor.tns");
  const std::string log_path = TempPath("cli_pump_log.tevt");
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "10x10", "--nnz", "60"},
                         &output)
                  .ok());
  ASSERT_TRUE(RunCommand({"export-events", "--input", tensor_path,
                          "--output", log_path},
                         &output)
                  .ok());
  // Each bad value is refused by the shared parser, naming its flag, in
  // both ingest modes and before any producer thread starts (so the
  // producer limit is probed only with values that start none).
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"lateness", "nan"},   {"lateness", "inf"},
      {"lateness", "-inf"},  {"lateness", "1e30"},
      {"lateness", "-1e30"}, {"rate", "-1"},
      {"rate", "nan"},       {"producers", "65"}};
  for (const std::string mode : {"batch", "continuous"}) {
    for (const auto& [flag, value] : bad) {
      const Status status =
          RunCommand({"stream", "--ingest", log_path, "--ingest-mode", mode,
                      "--" + flag, value},
                     &output);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << mode << " --" << flag << " " << value;
      EXPECT_NE(status.message().find("--" + flag), std::string::npos)
          << status.message();
    }
  }
  // The edges of the accepted ranges still run.
  EXPECT_TRUE(RunCommand({"stream", "--ingest", log_path, "--rank", "2",
                          "--lateness", "-1", "--rate", "0", "--producers",
                          "3"},
                         &output)
                  .ok())
      << output;
  std::remove(tensor_path.c_str());
  std::remove(log_path.c_str());
}

TEST(CliTest, BothIngestModesExportTheQueueCounters) {
  std::string output;
  const std::string tensor_path = TempPath("cli_pump_tensor2.tns");
  const std::string log_path = TempPath("cli_pump_log2.tevt");
  const std::string metrics_path = TempPath("cli_pump_metrics.prom");
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims",
                          "20x16x12", "--nnz", "600", "--rank", "2"},
                         &output)
                  .ok());
  ASSERT_TRUE(RunCommand({"export-events", "--input", tensor_path,
                          "--output", log_path, "--steps", "2"},
                         &output)
                  .ok());
  for (const std::string mode : {"batch", "continuous"}) {
    std::remove(metrics_path.c_str());
    ASSERT_TRUE(RunCommand({"stream", "--ingest", log_path, "--ingest-mode",
                            mode, "--rank", "2", "--iterations", "2",
                            "--backpressure", "drop-oldest",
                            "--queue-capacity", "2", "--producers", "2",
                            "--metrics-out", metrics_path},
                           &output)
                    .ok())
        << output;
    const std::string metrics = ReadFileToString(metrics_path);
    for (const char* family :
         {"dismastd_ingest_events_total", "dismastd_ingest_late_events_total",
          "dismastd_ingest_dropped_oldest_total",
          "dismastd_ingest_rejected_total",
          "dismastd_ingest_block_waits_total",
          "dismastd_ingest_queue_max_depth",
          "dismastd_ingest_event_to_publish_nanoseconds"}) {
      EXPECT_NE(metrics.find(std::string("\n") + family), std::string::npos)
          << mode << " mode is missing " << family;
    }
  }
  std::remove(tensor_path.c_str());
  std::remove(log_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(CliTest, BadInputsReportErrors) {
  std::string output;
  EXPECT_FALSE(RunCommand({"generate", "--dims", "4x4"}, &output).ok());  // no output
  EXPECT_FALSE(RunCommand({"info", "--input", "/nonexistent.tns"}, &output).ok());
  EXPECT_FALSE(
      RunCommand({"stream", "--input", "/nonexistent.tns"}, &output).ok());
  const std::string tensor_path = TempPath("cli_tensor3.tns");
  ASSERT_TRUE(RunCommand({"generate", "--output", tensor_path, "--dims", "10x10",
                   "--nnz", "50"},
                  &output)
                  .ok());
  EXPECT_FALSE(RunCommand({"stream", "--input", tensor_path, "--method", "bogus"},
                   &output)
                   .ok());
  EXPECT_FALSE(RunCommand({"stream", "--input", tensor_path, "--partitioner",
                    "bogus"},
                   &output)
                   .ok());
  EXPECT_FALSE(RunCommand({"decompose", "--input", tensor_path, "--rank", "0"},
                   &output)
                   .ok());
  std::remove(tensor_path.c_str());
}

}  // namespace
}  // namespace cli
}  // namespace dismastd
