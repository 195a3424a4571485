// perfbench — one benchmark command for DUST's control and data planes.
//
//   perfbench --workload <fabric-steady|fleet-churn|stream-loopback>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--git-sha <sha>] [--source-digest <hex>]
//
// Prints a PROVENANCE line, an INFO line of diagnostics and, last, one JSON
// result object: end-to-end metrics with --trace 0, per-layer metrics from
// the span trace with --trace 1. Exits 1 when a correctness check fails.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  return "unknown";
}

void print_provenance(const Options& options, const std::string& git_sha,
                      const std::string& source_digest) {
  const char* threads = std::getenv("DUST_THREADS");
  std::cout << "PROVENANCE {"
            << "\"cpu_model\": " << Report::quoted(cpu_model())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"pool_size\": " << dust::util::global_pool().size()
            << ", \"dust_threads\": " << Report::quoted(threads ? threads : "unset")
            << ", \"build_type\": " << Report::quoted(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << Report::quoted(PERFBENCH_COMPILER)
            << ", \"git_sha\": " << Report::quoted(git_sha)
            << ", \"source_digest\": " << Report::quoted(source_digest)
            << ", \"workload\": " << Report::quoted(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"seconds\": " << options.seconds
            << ", \"trace\": " << (options.trace ? 1 : 0) << "}\n";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <fabric-steady|fleet-churn|"
               "stream-loopback> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] [--git-sha <sha>] [--source-digest <hex>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = std::stoi(value) != 0;
      else if (flag == "--trace-out") options.trace_out = value;
      else if (flag == "--git-sha") git_sha = value;
      else if (flag == "--source-digest") source_digest = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  void (*run)(const Options&, Report&) = nullptr;
  if (options.workload == "fabric-steady") run = run_fabric_steady;
  else if (options.workload == "fleet-churn") run = run_fleet_churn;
  else if (options.workload == "stream-loopback") run = run_stream_loopback;
  else usage("unknown workload '" + options.workload + "'");

  // Protocol warnings (e.g. no replica for a redirect) are expected under
  // churn; DUST_LOG overrides.
  if (std::getenv("DUST_LOG")) dust::util::init_log_level_from_env();
  else dust::util::set_log_level(dust::util::LogLevel::kError);

  print_provenance(options, git_sha, source_digest);
  Report report;
  const StealMeter steal;
  try {
    run(options, report);
  } catch (const std::exception& e) {
    std::cout << "ERROR: " << e.what() << std::endl;
    return 1;
  }
  report.info("host_steal_pct", 100.0 * steal.share());
  report.print(std::cout);
  return report.correct() ? 0 : 1;
}
