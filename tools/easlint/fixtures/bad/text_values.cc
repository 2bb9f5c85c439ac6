// Known-bad fixture: number parsing outside src/base/, each call with its
// own rule for what a number is.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace eas {

struct Spec {
  int count;
  long long tick;
  double delta;
};

Spec ReadSpec(const std::string& text) {
  Spec spec{};
  spec.count = std::atoi(text.c_str());  // expect: text-values
  spec.tick = strtoll(text.c_str(), nullptr, 10);  // expect: text-values
  spec.delta = std::strtod(text.c_str(), nullptr);  // expect: text-values
  std::sscanf(text.c_str(), "%d", &spec.count);  // expect: text-values
  spec.count = std::stoi(text);  // expect: text-values
  std::from_chars(text.data(), text.data() + text.size(), spec.tick);  // expect: text-values
  return spec;
}

}  // namespace eas
