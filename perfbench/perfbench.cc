// DisMASTD wall-clock benchmark binary: runs one workload in this process
// and prints its report as one JSON line (the last line of stdout).
//
//   perfbench --workload NAME --seed N --seconds S [--trace-out FILE]
//
// Workloads: stream_netflix, stream_synthetic, serve_topk, ingest_serve.
// With --trace-out the workload also repeats its measurement with an
// obs::Tracer (workers detail) attached and writes the Chrome trace there.
// Exit status: 0 when every correctness check passed, 1 otherwise, 2 on a
// usage error.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "kernels/kernels.h"
#include "obs/trace.h"

namespace perfbench {

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace {

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string PairsJson(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string out = "{";
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(pairs[i].first) + ": " + JsonString(pairs[i].second);
  }
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, trace_out;
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  dismastd::obs::Tracer tracer(dismastd::obs::TraceDetail::kWorkers);
  if (!trace_out.empty()) config.tracer = &tracer;

  Report report;
  if (workload == "stream_netflix") {
    report = RunStream("Netflix", config);
  } else if (workload == "stream_synthetic") {
    report = RunStream("Synthetic", config);
  } else if (workload == "serve_topk") {
    report = RunServeTopK(config);
  } else if (workload == "ingest_serve") {
    report = RunIngestServe(config);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }

  if (config.tracer != nullptr) {
    const dismastd::Status written = tracer.WriteChromeTraceFile(trace_out);
    report.Check("trace_written", written.ok() && tracer.dropped_events() == 0,
                 written.ok() ? std::to_string(tracer.event_count()) + " events"
                              : written.message());
  }

  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const std::vector<std::pair<std::string, std::string>> provenance = {
      {"workload", workload},
      {"seed", std::to_string(config.seed)},
      {"seconds", std::to_string(config.seconds)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", CpuModel()},
      {"kernels", dismastd::kernels::DispatchExplanation()},
      {"llc_bytes", std::to_string(llc)},
      {"traced", config.tracer != nullptr ? "yes" : "no"},
  };
  for (const auto& [key, value] : report.notes) {
    std::fprintf(stderr, "  %-34s %s\n", key.c_str(), value.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"e2e\": %s, \"layers\": %s, \"notes\": %s, \"provenance\": %s}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      MetricsJson(report.e2e).c_str(), MetricsJson(report.layers).c_str(),
      PairsJson(report.notes).c_str(), PairsJson(provenance).c_str());
  return report.correct ? 0 : 1;
}
