#include <iostream>
#include <string>

#include "roles.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  const std::string role = argc > 1 ? argv[1] : "";
  // CliArgs sees the arguments after the role word.
  const phodis::util::CliArgs args(argc - 1, argv + 1);
  phodis::util::set_log_level(
      phodis::util::parse_log_level(args.get("log-level", "warn")));
  try {
    if (role == "run") return clusterbench::driver_main(args);
    if (role == "server") return clusterbench::server_main(args);
    if (role == "worker") return clusterbench::worker_main(args);
  } catch (const std::exception& error) {
    std::cerr << "clusterbench " << role << ": " << error.what() << "\n";
    return 1;
  }
  std::cerr << "usage: clusterbench {run|server|worker} [--options]\n";
  return 2;
}
