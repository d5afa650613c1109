// The mmtag_sim command table. Every command runs through one harness: a
// parse step reads and validates every option and builds every config before
// anything prints (bad input: exit 1, empty stdout), then a run step does the
// work while the harness owns --jobs, --json, --metrics[=FILE], --trace FILE,
// the runtime line and the exit code.
#pragma once

#include "mmtag/cli/options.hpp"

namespace mmtag::cli {

/// Runs the command named by argv[1] and returns its exit code. `help` (or
/// no command) prints usage; unknown commands and bad options print to
/// stderr and return 1.
int dispatch(int argc, const char* const* argv);

} // namespace mmtag::cli
