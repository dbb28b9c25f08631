// Known-bad fixture: library code writing straight to stdout.
// Reporting belongs behind an obs:: probe or common/logging; the
// CLI/bench boundary owns the output stream.

#include <cstdio>
#include <iostream>

void
reportProgress(int done)
{
    std::cout << "done " << done << "\n";

    std::printf("done %d\n", done);

    std::fprintf(stdout, "done %d\n", done);
}

void
reportAllowed(int done, char *buf, unsigned long len)
{
    // std::cerr and the formatting-only printf family stay legal.
    std::cerr << "progress " << done << "\n";
    std::snprintf(buf, len, "done %d", done);
    // analyze: allow(direct-logging)
    std::puts("banner");
}
