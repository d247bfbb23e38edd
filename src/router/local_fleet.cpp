#include "router/local_fleet.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "router/socket.hpp"

namespace pelican::router {

std::string fleet_socket_address(const std::filesystem::path& root,
                                 std::size_t index) {
  // Built up in steps (gcc 12's -Wrestrict misfires on fused temporary
  // string concatenation).
  std::string name = "e";
  name += std::to_string(index);
  name += ".sock";
  std::string address = "unix:";
  address += (root / name).string();
  return address;
}

std::string LocalFleet::default_engined_path() {
  if (const char* env = std::getenv("PELICAN_ENGINED")) return env;
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) {
    const auto candidate =
        self.parent_path().parent_path() / "tools" / "pelican_engined";
    if (std::filesystem::exists(candidate)) return candidate.string();
  }
  return {};
}

LocalFleet::LocalFleet(LocalFleetConfig config) : config_(std::move(config)) {
  if (config_.engined_binary.empty()) {
    config_.engined_binary = default_engined_path();
  }
  if (config_.engined_binary.empty() ||
      !std::filesystem::exists(config_.engined_binary)) {
    throw std::runtime_error(
        "LocalFleet: pelican_engined not found (set PELICAN_ENGINED or "
        "build the tools/ targets)");
  }
  std::filesystem::create_directories(config_.root);
  std::filesystem::create_directories(store_root());

  for (std::size_t i = 0; i < config_.processes; ++i) {
    const std::string address = fleet_socket_address(config_.root, i);
    std::vector<std::string> args = {config_.engined_binary,
                                     "--listen",
                                     address,
                                     "--store",
                                     store_root().string(),
                                     "--scope",
                                     config_.scope};
    args.insert(args.end(), config_.extra_args.begin(),
                config_.extra_args.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Die with the owner however it exits: an owner that skips this
      // destructor (std::exit, a sanitizer abort) would otherwise leave
      // engines holding its output pipes open.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);  // the owner is already gone
      ::execv(argv[0], argv.data());
      ::_exit(127);  // exec failed; the parent's readiness wait times out
    }
    if (pid < 0) {
      // Partial bring-up: the destructor will not run after a throwing
      // constructor, so reap the engines spawned so far here.
      for (std::size_t spawned = 0; spawned < pids_.size(); ++spawned) {
        kill(spawned);
      }
      throw std::runtime_error("LocalFleet: fork failed");
    }
    pids_.push_back(pid);
    addresses_.push_back(address);
  }

  for (const auto& address : addresses_) {
    if (!wait_connectable(parse_address(address),
                          std::chrono::seconds(10))) {
      // Partial bring-up: tear down what exists before reporting.
      for (std::size_t i = 0; i < pids_.size(); ++i) kill(i);
      throw std::runtime_error("LocalFleet: engine did not come up on " +
                               address);
    }
  }
}

LocalFleet::~LocalFleet() {
  for (std::size_t i = 0; i < pids_.size(); ++i) kill(i);
}

void LocalFleet::kill(std::size_t index) {
  pid_t& pid = pids_.at(index);
  if (pid <= 0) return;
  ::kill(pid, SIGKILL);
  int status = 0;
  (void)::waitpid(pid, &status, 0);
  pid = -1;
}

int LocalFleet::reap(std::size_t index) {
  pid_t& pid = pids_.at(index);
  if (pid <= 0) return 0;
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  pid = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace pelican::router
