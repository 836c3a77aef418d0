// The one JSON string escaper behind every JSON writer in the repo: the
// Chrome trace export, the metrics registry and the phase-telemetry tree.
// Dependency-free (std only), like the rest of src/obs/.
#pragma once

#include <string>
#include <string_view>

namespace aviv {

// Appends `s` to `out` as a quoted JSON string. `"`, `\`, `\n`, `\t` and
// `\r` get their short escapes, every other control byte `\u00XX`; all
// other bytes (UTF-8 included) pass through raw.
void appendJsonString(std::string& out, std::string_view s);

}  // namespace aviv
