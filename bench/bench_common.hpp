// Shared scaffolding for the figure-reproduction benches.
//
// Every bench binary prints the corresponding paper figure's series as a
// table on stdout. Iteration counts default to CI-friendly sizes; set
// DUST_BENCH_SCALE=full to run paper-scale sweeps (Figs 7-12 used 100-1000
// iterations in the paper).
#pragma once

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/nmdb.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace dust::bench {

inline bool full_scale() {
  const char* env = std::getenv("DUST_BENCH_SCALE");
  return env != nullptr && std::string(env) == "full";
}

/// Iterations: paper-scale when DUST_BENCH_SCALE=full, else the CI default.
inline std::size_t iterations(std::size_t paper, std::size_t ci) {
  return full_scale() ? paper : ci;
}

inline std::uint64_t base_seed() {
  if (const char* env = std::getenv("DUST_BENCH_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 0x5eedu;
}

/// Random k-port fat-tree scenario matching §V-B: links 10 GbE with random
/// utilization, node loads uniform in [x_min, 100], default thresholds
/// (Cmax 80, COmax 60, x_min 10 — Δ_io = 2.5, inside the recommended band).
inline core::Nmdb fat_tree_scenario(std::uint32_t k, util::Rng& rng,
                                    core::Thresholds thresholds = {}) {
  net::NetworkState state =
      net::make_random_state(graph::FatTree(k).graph(), net::LinkProfile{},
                             net::NodeLoadProfile{}, rng);
  return core::Nmdb(std::move(state), thresholds);
}

/// Emit a result table; DUST_BENCH_FORMAT=csv switches every bench to
/// machine-readable CSV (for plotting) instead of aligned text.
inline void emit(const util::Table& table) {
  const char* format = std::getenv("DUST_BENCH_FORMAT");
  if (format != nullptr && std::string(format) == "csv")
    table.print_csv(std::cout);
  else
    table.print(std::cout);
}

inline void print_header(const std::string& name, const std::string& claim) {
  std::cout << "\n# " << name << "\n# paper: " << claim << "\n"
            << "# scale: " << (full_scale() ? "full (paper)" : "ci (default)")
            << " — set DUST_BENCH_SCALE=full for paper-scale iterations\n\n";
}

/// The machine and build a bench ran on. Reports record it so that
/// scripts/bench_compare.py can refuse to diff numbers taken on different
/// hosts or builds; git_sha is informational (a compare spans commits).
struct HostInfo {
  std::string cpu_model;  ///< /proc/cpuinfo "model name"
  unsigned cores = 0;     ///< hardware threads
  std::string dust_threads;  ///< DUST_THREADS as set, empty when unset
  std::string build_type;    ///< CMake configuration of the bench binary
  std::string git_sha;       ///< HEAD of the source checkout
};

inline HostInfo host_info() {
  HostInfo host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) host.cpu_model = line.substr(colon + 1);
    host.cpu_model.erase(0, host.cpu_model.find_first_not_of(' '));
    break;
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  host.cores = std::thread::hardware_concurrency();
  if (const char* env = std::getenv("DUST_THREADS")) host.dust_threads = env;
  // Both macros come from dust_add_bench in bench/CMakeLists.txt.
  host.build_type = DUST_BUILD_TYPE;
  const std::string command =
      std::string("git -C '") + DUST_SOURCE_DIR + "' rev-parse HEAD 2>/dev/null";
  if (FILE* pipe = popen(command.c_str(), "r")) {
    std::array<char, 64> sha{};
    if (std::fgets(sha.data(), sha.size(), pipe) != nullptr) {
      host.git_sha = sha.data();
      host.git_sha.erase(host.git_sha.find_last_not_of("\n") + 1);
    }
    pclose(pipe);
  }
  if (host.git_sha.empty()) host.git_sha = "none";
  return host;
}

/// Machine-readable bench output: a BENCH_<name>.json file holding a flat
/// list of {name, metric, value, units, config} records — one record per
/// measured quantity, `config` identifying the variant/scenario it belongs
/// to ("pattern=steady-jitter", "obs=on", ...). Written to the working
/// directory unless DUST_BENCH_JSON_DIR points elsewhere. The uniform
/// schema lets CI diff any bench against a baseline with one parser. A
/// top-level "host" object records host_info().
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : bench_name_(std::move(bench_name)), host_(host_info()) {}

  void add(const std::string& metric, double value, const std::string& units,
           const std::string& config = {}) {
    records_.push_back({metric, value, units, config});
  }

  /// Record the size of the topology the bench ran on; written as a
  /// top-level "topology" object so baseline diffs can refuse to compare
  /// runs taken at different scales.
  void set_topology(std::size_t nodes, std::size_t edges) {
    topology_nodes_ = nodes;
    topology_edges_ = edges;
    has_topology_ = true;
  }

  /// Path the report will be written to.
  [[nodiscard]] std::string path() const {
    std::string dir;
    if (const char* env = std::getenv("DUST_BENCH_JSON_DIR")) {
      dir = env;
      if (!dir.empty() && dir.back() != '/') dir += '/';
    }
    return dir + "BENCH_" + bench_name_ + ".json";
  }

  /// Write all records; returns the file path (empty on I/O failure).
  std::string write() const {
    const std::string file = path();
    std::ofstream os(file);
    if (!os) return {};
    os << "{\n  \"bench\": \"" << escape(bench_name_) << "\",\n"
       << "  \"schema\": \"dust-bench-v1\",\n"
       << "  \"host\": {\"cpu_model\": \"" << escape(host_.cpu_model)
       << "\", \"cores\": " << host_.cores << ", \"dust_threads\": \""
       << escape(host_.dust_threads) << "\", \"build_type\": \""
       << escape(host_.build_type) << "\", \"git_sha\": \""
       << escape(host_.git_sha) << "\"},\n";
    if (has_topology_)
      os << "  \"topology\": {\"nodes\": " << topology_nodes_
         << ", \"edges\": " << topology_edges_ << "},\n";
    os << "  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      os << "    {\"name\": \"" << escape(bench_name_) << "\", \"metric\": \""
         << escape(r.metric) << "\", \"value\": " << format(r.value)
         << ", \"units\": \"" << escape(r.units) << "\", \"config\": \""
         << escape(r.config) << "\"}" << (i + 1 < records_.size() ? "," : "")
         << "\n";
    }
    os << "  ]\n}\n";
    return file;
  }

 private:
  struct Record {
    std::string metric;
    double value = 0.0;
    std::string units;
    std::string config;
  };

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
      if (ch == '"' || ch == '\\') out.push_back('\\');
      out.push_back(static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch);
    }
    return out;
  }
  static std::string format(double v) {
    std::ostringstream out;
    out.precision(9);
    out << v;
    return out.str();
  }

  std::string bench_name_;
  HostInfo host_;
  std::vector<Record> records_;
  std::size_t topology_nodes_ = 0;
  std::size_t topology_edges_ = 0;
  bool has_topology_ = false;
};

}  // namespace dust::bench
