// Rendering of a run: the one-line result the benchmark prints last, and the
// artifact file with the run header and every metric's unit and sample count.

#ifndef ENSEMBLE_PERFBENCH_REPORT_H_
#define ENSEMBLE_PERFBENCH_REPORT_H_

#include <string>

#include "perfbench/bench.h"

namespace perfbench {

std::string ResultLine(const RunReport& r);
// Validates the artifact JSON, then writes it under opt.out_dir.
bool WriteArtifact(const Options& opt, const RunReport& r, std::string* path_out);

}  // namespace perfbench

#endif  // ENSEMBLE_PERFBENCH_REPORT_H_
