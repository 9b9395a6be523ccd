#include "sched/task.hpp"

#include <algorithm>

namespace pap::sched {

std::string to_string(Asil level) {
  switch (level) {
    case Asil::kQM:
      return "QM";
    case Asil::kA:
      return "ASIL-A";
    case Asil::kB:
      return "ASIL-B";
    case Asil::kC:
      return "ASIL-C";
    case Asil::kD:
      return "ASIL-D";
  }
  return "?";
}

int TaskSet::max_core() const {
  int m = 0;
  for (const auto& t : tasks) m = std::max(m, t.core);
  return m;
}

}  // namespace pap::sched
