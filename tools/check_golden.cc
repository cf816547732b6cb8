/**
 * @file
 * xlvm-check-golden — golden-snapshot regression gate.
 *
 * Compares a freshly generated metrics report against a committed
 * golden. Deterministic integer counters must match bit-exactly;
 * derived floats compare under --rtol. Exit codes:
 *   0  reports agree (or --update rewrote the golden)
 *   1  counter drift (a unified diff of drifted counters is printed)
 *   2  usage or I/O error
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "report/golden.h"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <fresh.json> <golden.json> [--rtol X] [--update]\n"
        "          [--ignore-section NAME]...\n"
        "\n"
        "Compares a fresh metrics report against a committed golden\n"
        "snapshot. Integer counters must match exactly; floats compare\n"
        "under the relative tolerance --rtol (default 1e-6).\n"
        "\n"
        "  --rtol X   relative tolerance for derived float metrics\n"
        "  --ignore-section NAME\n"
        "             skip object key NAME wherever it appears (both\n"
        "             sides; repeatable). The profiled golden pass uses\n"
        "             --ignore-section profiler since those host-side\n"
        "             counters legitimately differ between gate runs.\n"
        "  --update   on drift, overwrite the golden with the fresh\n"
        "             report (use when a change is *intended* to move\n"
        "             counters) and exit 0\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace xlvm::report;

    std::string freshPath, goldenPath;
    GoldenOptions opts;
    bool update = false;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--update") == 0) {
            update = true;
        } else if (std::strcmp(a, "--rtol") == 0 && i + 1 < argc) {
            opts.rtol = std::strtod(argv[++i], nullptr);
        } else if (std::strncmp(a, "--rtol=", 7) == 0) {
            opts.rtol = std::strtod(a + 7, nullptr);
        } else if (std::strcmp(a, "--ignore-section") == 0 && i + 1 < argc) {
            opts.ignoreKeys.push_back(argv[++i]);
        } else if (std::strncmp(a, "--ignore-section=", 17) == 0) {
            opts.ignoreKeys.push_back(a + 17);
        } else if (std::strcmp(a, "-h") == 0 ||
                   std::strcmp(a, "--help") == 0) {
            usage(argv[0]);
            return 0;
        } else if (a[0] == '-') {
            std::fprintf(stderr, "%s: unknown option %s\n", argv[0], a);
            usage(argv[0]);
            return 2;
        } else if (freshPath.empty()) {
            freshPath = a;
        } else if (goldenPath.empty()) {
            goldenPath = a;
        } else {
            std::fprintf(stderr, "%s: too many arguments\n", argv[0]);
            usage(argv[0]);
            return 2;
        }
    }
    if (freshPath.empty() || goldenPath.empty()) {
        usage(argv[0]);
        return 2;
    }

    std::string err;
    Json fresh;
    if (!loadReport(freshPath, &fresh, &err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        return 2;
    }

    Json golden;
    bool haveGolden = loadReport(goldenPath, &golden, &err);
    if (!haveGolden && !update) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        return 2;
    }

    auto writeGolden = [&]() -> int {
        std::ofstream f(goldenPath, std::ios::binary | std::ios::trunc);
        if (!f) {
            std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                         goldenPath.c_str());
            return 2;
        }
        std::string payload = fresh.dump(2) + "\n";
        f.write(payload.data(), std::streamsize(payload.size()));
        f.flush();
        if (!f) {
            std::fprintf(stderr, "%s: write failed for %s\n", argv[0],
                         goldenPath.c_str());
            return 2;
        }
        std::printf("updated %s from %s\n", goldenPath.c_str(),
                    freshPath.c_str());
        return 0;
    };

    if (!haveGolden)
        return writeGolden(); // --update bootstraps a missing golden

    std::vector<Drift> drifts = compareReports(golden, fresh, opts);
    if (drifts.empty()) {
        std::printf("OK: %s matches %s\n", freshPath.c_str(),
                    goldenPath.c_str());
        return 0;
    }

    if (update)
        return writeGolden();

    std::string diff = formatDriftDiff(goldenPath, freshPath, drifts);
    std::fwrite(diff.data(), 1, diff.size(), stdout);
    std::printf("FAIL: %zu drifted counter%s between %s and %s\n",
                drifts.size(), drifts.size() == 1 ? "" : "s",
                freshPath.c_str(), goldenPath.c_str());
    return 1;
}
