/**
 * @file
 * Readers for the environment variables the engine still honours: the
 * process-wide DSE_THREADS and DSE_METRICS switches, and the benchmark
 * harnesses' scope knobs (study::BenchScope), which let the same
 * binary run a quick representative sweep by default and a full
 * paper-scale sweep on request (DESIGN.md, "Per-experiment index").
 * The serve and remote layers read none of them: their settings are
 * option-struct fields and tool flags.
 */

#ifndef DSE_UTIL_ENV_HH
#define DSE_UTIL_ENV_HH

#include <string>
#include <vector>

namespace dse {

/** Read an integer env var, or `fallback` when unset/unparsable. */
long long envInt(const char *name, long long fallback);

/** Read a floating-point env var, or `fallback` when unset/unparsable. */
double envDouble(const char *name, double fallback);

/** Read a boolean env var ("1"/"true"/"yes" are true). */
bool envBool(const char *name, bool fallback);

/** Read a comma-separated list env var, or `fallback` when unset. */
std::vector<std::string> envList(const char *name,
                                 const std::vector<std::string> &fallback);

} // namespace dse

#endif // DSE_UTIL_ENV_HH
