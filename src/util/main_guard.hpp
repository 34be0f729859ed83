#pragma once
// The shared main guard of the example and bench programs: bad input
// (a malformed flag, an impossible block grid, a bad --ft-script) ends
// the program with one diagnostic line and exit status 1, never with
// an abort from an uncaught exception.
//
//   int run_main(int argc, char** argv) { ... }
//   int main(int argc, char** argv) {
//     return cxu::guarded_main(argc, argv, run_main);
//   }

#include <cstdio>
#include <cstring>
#include <exception>

namespace cxu {

/// Run `body(argc, argv)`. An escaping std::exception becomes
/// "<program>: error: <what>" on stderr and exit status 1.
inline int guarded_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    const char* prog = argc > 0 ? argv[0] : "charmx";
    if (const char* slash = std::strrchr(prog, '/')) prog = slash + 1;
    std::fprintf(stderr, "%s: error: %s\n", prog, e.what());
    return 1;
  }
}

}  // namespace cxu
