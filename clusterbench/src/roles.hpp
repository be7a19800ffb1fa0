// The three processes of one benchmark invocation, all in one binary:
//
//   clusterbench run    --workload W --seed N --seconds S --trace 0|1
//   clusterbench server ...   (spawned by `run`, one per cluster run)
//   clusterbench worker ...   (spawned by `run`, one per worker)
//
// `run` is the driver: it builds the plan and the reference, launches a
// server plus workers over a Unix-domain socket for each cluster run,
// times the layer microbenchmarks between runs, and prints the report.
#pragma once

#include "util/cli.hpp"

namespace clusterbench {

int driver_main(const phodis::util::CliArgs& args);
int server_main(const phodis::util::CliArgs& args);
int worker_main(const phodis::util::CliArgs& args);

}  // namespace clusterbench
