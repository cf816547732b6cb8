/**
 * @file
 * xlvm-repro: regenerate every table and figure of the paper (see
 * repro.h), e.g. `xlvm-repro --jobs 4` or `xlvm-repro --sweep fig2`.
 */

#include "repro.h"

int
main(int argc, char **argv)
{
    using namespace xlvm::bench;
    Repro repro(parseReproArgs(argc, argv, paperSweeps()));
    repro.run();
    repro.printViews();
    return repro.finish();
}
