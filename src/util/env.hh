/**
 * @file
 * Readers for the process-wide switches the library honours:
 * DSE_THREADS (thread_pool.cc) and DSE_METRICS (metrics.cc). Both
 * fall back to their default on text they cannot read, because the
 * library cannot exit the process. DSE_TRACE and DSE_FAULTS read their
 * own variables. The benches' scope knobs are parsed strictly in
 * bench/common.hh, and the serve and remote layers read no variable:
 * their settings are option-struct fields and tool flags.
 */

#ifndef DSE_UTIL_ENV_HH
#define DSE_UTIL_ENV_HH

namespace dse {

/** Read an integer env var, or `fallback` when unset/unparsable. */
long long envInt(const char *name, long long fallback);

/** Read a boolean env var ("1"/"true"/"yes" are true). */
bool envBool(const char *name, bool fallback);

} // namespace dse

#endif // DSE_UTIL_ENV_HH
