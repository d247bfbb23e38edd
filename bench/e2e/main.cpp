// pelican_bench: the repo's end-to-end benchmark (README.md in this
// directory explains the workloads and metrics).
//
//   pelican_bench --workload <name|all> --seed N [--seconds S] [--traced]
//                 [--smoke] --out DIR
//
// Each workload runs in its own process (`all` re-runs this binary once per
// workload), so peak RSS and state are per workload. Prints every metric by
// name with its unit, writes <out>/<workload>.json (traced runs also write
// <out>/<workload>.trace.json), and exits 1 when a correctness check fails.
#include <sys/wait.h>
#include <unistd.h>

#include <ctime>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/table.hpp"

using namespace pelican;
using namespace pelican::e2e;

namespace {

constexpr const char* kWorkloads[] = {"routed_b1", "routed_publish",
                                      "engine_b32_int8", "attack_bruteforce"};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload <name|all> --seed N [--seconds S] [--traced]\n"
               "       [--smoke] --out DIR\n"
               "workloads:";
  for (const char* name : kWorkloads) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

std::string utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char text[32];
  std::strftime(text, sizeof(text), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return text;
}

int run_one(const Options& options) {
  const std::string started_at = utc_now();
  Report report;
  SpanLog spans(options.traced);
  try {
    if (options.workload == "routed_b1") {
      run_routed(options, /*with_publish=*/false, report, spans);
    } else if (options.workload == "routed_publish") {
      run_routed(options, /*with_publish=*/true, report, spans);
    } else if (options.workload == "engine_b32_int8") {
      run_engine(options, report, spans);
    } else {
      run_attack(options, report, spans);
    }
  } catch (const std::exception& error) {
    report.check("workload ran to completion", false, error.what());
  }
  print_banner(std::cout, "pelican_bench " + options.workload +
                              (options.traced ? " (traced)" : ""));
  report.print(std::cout);
  report.write(options, started_at);
  if (options.traced) {
    spans.write(options.out / (options.workload + ".trace.json"));
  }
  return report.correct() ? 0 : 1;
}

/// Runs every workload in a child process of its own; nonzero when any
/// child failed.
int run_all(const Options& options) {
  int status_all = 0;
  for (const char* workload : kWorkloads) {
    std::vector<std::string> args = {
        "/proc/self/exe", "--workload", workload,
        "--seed", std::to_string(options.seed),
        "--seconds", std::to_string(options.seconds),
        "--out", options.out.string()};
    if (options.traced) args.emplace_back("--traced");
    if (options.smoke) args.emplace_back("--smoke");
    std::vector<char*> argv;
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    std::cout.flush();
    const pid_t pid = ::fork();
    if (pid < 0) return 1;
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::cerr << "pelican_bench: workload " << workload << " failed\n";
      status_all = 1;
    }
  }
  return status_all;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (flag == "--workload" && has_value) {
        options.workload = argv[++i];
      } else if (flag == "--seed" && has_value) {
        options.seed = std::stoull(argv[++i]);
      } else if (flag == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
      } else if (flag == "--out" && has_value) {
        options.out = argv[++i];
        have_out = true;
      } else if (flag == "--traced") {
        options.traced = true;
      } else if (flag == "--smoke") {
        options.smoke = true;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (!have_out || !(options.seconds > 0.0)) return usage(argv[0]);
  if (options.workload == "all") return run_all(options);
  for (const char* name : kWorkloads) {
    if (options.workload == name) return run_one(options);
  }
  return usage(argv[0]);
}
