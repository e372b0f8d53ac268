// The command-line flag parser shared by the qsc_eval and qsc_bench CLIs.
// Flags take `--name=value` or `--name value`. A malformed value is a
// usage error: the parser prints "<program>: <message>" to stderr and
// exits with status 2, the usage-error code both CLIs document.

#ifndef QSC_UTIL_FLAGS_H_
#define QSC_UTIL_FLAGS_H_

#include <cstdint>
#include <string>

namespace qsc {

class FlagParser {
 public:
  FlagParser(const char* program, int argc, char** argv)
      : program_(program), argc_(argc), argv_(argv) {}

  // Matches argv[*i] against `--name=value` or `--name value`; advances *i
  // past the value for the latter.
  bool Match(int* i, const char* name, std::string* value) const;

  // An int no smaller than `min`; a value past the int range is an error,
  // not a truncation.
  int ParseInt(const std::string& value, const char* flag, int min) const;
  double ParseDouble(const std::string& value, const char* flag) const;

  // A uint64 instance seed. strtoull wraps a leading '-' instead of
  // failing, and a misparsed seed would break the reproducibility
  // contract, so anything but plain digits is rejected.
  uint64_t ParseSeed(const std::string& value) const;

  // Prints "<program>: <message>" and exits with status 2.
  [[noreturn]] void Fail(const std::string& message) const;

 private:
  const char* program_;
  int argc_;
  char** argv_;
};

}  // namespace qsc

#endif  // QSC_UTIL_FLAGS_H_
