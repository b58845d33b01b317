// adafl_bench — end-to-end and per-layer benchmark of the AdaFL system.
//
//   adafl_bench --workload=<name>|all --seed=N --seconds=S --out=results.json
//               [--trace=dir] [--smoke]
//
// Prints one "workload metric value unit" line per metric and writes the
// same as JSON. Every run checks its outputs bitwise and exits 1 on any
// mismatch; exit 2 means the load budget (threads, sockets) was broken.
// See README.md for the workloads and the metric definitions.
#include <spawn.h>
#include <sys/wait.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.h"
#include "tensor/dispatch.h"
#include "workloads.h"

extern char** environ;

namespace adafl::bench {

void declare_layer_metrics(Result& r) {
  for (const MetricSpec& m : kPerLayer) r.set(m.name, 0.0, m.unit);
}

namespace {

/// `all`: one child process per workload, so peak RSS and warm state are
/// per workload. Returns the worst exit code; merges the children's JSON.
int run_all(const char* argv0, const cli::ArgParser& args) {
  const std::string out = args.get("out");
  std::vector<std::string> parts;
  int worst = 0;
  for (const char* w : kWorkloads) {
    std::vector<std::string> argv_s = {argv0, std::string("--workload=") + w,
                                       "--seed=" + args.get("seed"),
                                       "--seconds=" + args.get("seconds")};
    if (!out.empty()) argv_s.push_back("--out=" + out + "." + w + ".part");
    if (!args.get("trace").empty()) argv_s.push_back("--trace=" + args.get("trace"));
    if (args.get_bool("smoke")) argv_s.push_back("--smoke");
    std::vector<char*> argv_c;
    for (auto& s : argv_s) argv_c.push_back(s.data());
    argv_c.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv_c.data(),
                    environ) != 0) {
      std::cerr << "adafl_bench: cannot re-execute itself\n";
      return 1;
    }
    int status = 0;
    waitpid(pid, &status, 0);
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    worst = std::max(worst, code);
    if (!out.empty()) parts.push_back(out + "." + w + ".part");
  }
  if (!out.empty()) {
    std::string merged;
    for (const std::string& p : parts) {
      std::ifstream f(p);
      std::stringstream ss;
      ss << f.rdbuf();
      const std::string s = ss.str();
      const auto a = s.find('['), b = s.rfind(']');
      if (a != std::string::npos && b != std::string::npos && b > a + 1) {
        std::string body = s.substr(a + 1, b - a - 1);
        while (!body.empty() && (body.back() == '\n' || body.back() == ' '))
          body.pop_back();
        merged += (merged.empty() ? "" : ",") + body;
      }
      std::filesystem::remove(p);
    }
    std::ofstream f(out);
    f << "[" << merged << "\n]\n";
  }
  return worst;
}

}  // namespace
}  // namespace adafl::bench

int main(int argc, char** argv) {
  using namespace adafl;
  using namespace adafl::bench;
  cli::ArgParser args("adafl_bench");
  args.option("workload", "all", "sim_cnn|fleet_1k|tier_1k|lossy_udp|all")
      .option("seed", "1", "seed of the dataset, partition, model init and "
              "loss pattern")
      .option("seconds", "20", "length of the timed section at the reference "
              "round time (sets the number of timed rounds)")
      .option("out", "", "write the results as JSON to this file")
      .option("trace", "", "traced run: per-layer metrics, Chrome trace "
              "written into this directory")
      .option("smoke", "0", "smoke size: 1 timed round, 64-client fleet, "
              "8 CNN clients");
  if (!args.parse(argc, argv)) {
    std::cerr << "adafl_bench: " << args.error() << "\n\n" << args.usage();
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }
  Options opt;
  opt.workload = args.get("workload");
  opt.seed = static_cast<std::uint64_t>(args.get_int_at_least("seed", 0));
  opt.seconds = args.get_double("seconds");
  opt.smoke = args.get_bool("smoke");
  opt.trace_dir = args.get("trace");
  if (opt.workload == "all") return run_all(argv[0], args);

  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!known || !(opt.seconds > 0)) {
    std::cerr << "adafl_bench: unknown workload or bad --seconds\n";
    return 2;
  }

  Result res;
  res.workload = opt.workload;
  res.seed = opt.seed;
  try {
    tensor::set_kernel_backend(tensor::resolve_kernel_backend("auto"));
    std::cout << "# machine: " << machine_json() << std::endl;
    if (opt.traced()) std::filesystem::create_directories(opt.trace_dir);
    check_budget();
    res = opt.workload == "sim_cnn" ? run_sim(opt) : run_deployed(opt);
  } catch (const std::exception& e) {
    res.fail(e.what());
  }
  for (const MetricSpec& m : kEndToEnd) {
    bool found = false;
    for (const Result::Metric& have : res.metrics)
      found = found || (have.name == m.name && have.unit == m.unit);
    if (!found && res.correct) res.fail(std::string("metric ") + m.name + " missing");
  }
  if (!res.valid)
    std::cerr << "adafl_bench: " << opt.workload
              << ": invalid result, a load-generator thread was busier than "
              << kMaxDriverBusyShare << " of the timed window\n";
  print_result(res);
  if (!args.get("out").empty()) write_results_json(args.get("out"), {res});
  return res.correct ? 0 : 1;
}
