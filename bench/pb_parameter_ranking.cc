/**
 * @file
 * Reproduces the paper's **Chapter 4 methodology check**: a
 * Plackett-Burman fractional factorial design with foldover (Yi et
 * al. [29]) ranking the significance of each study's variable
 * parameters — the validation step that justifies which parameters
 * the sensitivity studies vary.
 */

#include <cstdio>

#include "bench/common.hh"
#include "doe/plackett_burman.hh"

using namespace dse;
using namespace dse::bench;

namespace {

void
rankStudy(study::StudyKind kind, const std::string &app,
          size_t trace_length)
{
    study::StudyContext ctx(kind, app, trace_length);
    const auto &space = ctx.space();
    const int factors = static_cast<int>(space.numParams());

    // High/low settings = extreme levels of each parameter.
    auto evaluate = [&](const std::vector<int8_t> &setting) {
        std::vector<int> levels(space.numParams());
        for (size_t p = 0; p < space.numParams(); ++p) {
            levels[p] = setting[p] > 0
                ? space.param(p).numLevels() - 1 : 0;
        }
        return ctx.simulateIpc(space.index(levels));
    };
    const auto result = doe::pbScreen(factors, evaluate,
                                      /*foldover=*/true);

    std::printf("\n== %s / %s: Plackett-Burman ranking (foldover, "
                "%zu runs) ==\n",
                app.c_str(), study::studyName(kind),
                doe::pbDesign(factors, true).size());
    Table t({"rank", "parameter", "effect_on_ipc"});
    for (size_t r = 0; r < result.ranking.size(); ++r) {
        const size_t f = result.ranking[r];
        t.newRow();
        t.add(static_cast<long long>(r + 1));
        t.add(space.param(f).name);
        t.add(result.effects[f], 4);
    }
    t.print(std::cout);
}

} // namespace

int
main()
{
    const auto scope = BenchScope::fromEnv({"crafty", "mcf"});
    std::printf("Chapter 4 check: Plackett-Burman parameter "
                "significance ranking\n(apps: %s)\n",
                join(scope.apps, ",").c_str());
    for (const auto &app : scope.apps) {
        rankStudy(study::StudyKind::MemorySystem, app,
                  scope.traceLength);
        rankStudy(study::StudyKind::Processor, app, scope.traceLength);
    }
    return 0;
}
