// Golden-output checks computed apart from the programs: each one checks a
// mathematical property of a program's output that follows from its inputs
// (conservation, a maximum principle, a residual, a tally), using only the
// output bytes and inputs rebuilt here from the program's formulas.
#pragma once

#include <string>

#include "core/outcome.h"

namespace perfbench {

// Empty when `golden`'s outputs pass; otherwise the first violation.  Every
// program's run must be clean with finite outputs; 360.ilbdc, 303.ostencil,
// 354.cg and 352.ep also have a property check.
std::string CheckGoldenOutput(const std::string& program,
                              const nvbitfi::fi::RunArtifacts& golden);

}  // namespace perfbench
