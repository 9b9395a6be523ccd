// Chrome `trace_event` JSON exporter for Tracer streams.
//
// Produces the JSON object format ({"traceEvents":[...]}) understood by
// Perfetto (ui.perfetto.dev) and chrome://tracing. Each component gets its
// own named thread track (metadata events assign thread names in
// first-emission order), timestamps are microseconds rendered from the
// integer picosecond clock with fixed six-decimal precision, so two
// identical runs export byte-identical files — the property the tracing
// determinism test and the CI trace-validation step rely on.
#pragma once

#include <string>

#include "trace/tracer.hpp"

namespace pap::trace {

/// The whole trace as one JSON string.
std::string to_chrome_json(const Tracer& tracer);

}  // namespace pap::trace
