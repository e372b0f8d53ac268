#include "qsc/util/flags.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace qsc {

bool FlagParser::Match(int* i, const char* name, std::string* value) const {
  const char* arg = argv_[*i];
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  if (arg[len] != '\0') return false;
  if (*i + 1 >= argc_) Fail(std::string(name) + " needs a value");
  *value = argv_[++*i];
  return true;
}

int FlagParser::ParseInt(const std::string& value, const char* flag,
                         int min) const {
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || parsed < min ||
      parsed > std::numeric_limits<int>::max()) {
    Fail(std::string("bad ") + flag + " value '" + value +
         "' (want an integer >= " + std::to_string(min) + ")");
  }
  return static_cast<int>(parsed);
}

double FlagParser::ParseDouble(const std::string& value,
                               const char* flag) const {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0') {
    Fail(std::string("bad ") + flag + " value '" + value + "'");
  }
  return parsed;
}

uint64_t FlagParser::ParseSeed(const std::string& value) const {
  char* end = nullptr;
  const uint64_t parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || value[0] == '-' || *end != '\0') {
    Fail("bad seed '" + value + "'");
  }
  return parsed;
}

void FlagParser::Fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", program_, message.c_str());
  std::exit(2);
}

}  // namespace qsc
