// Known-bad fixture: defining metric schema outside src/sim/metrics.cc.
#include <string>
#include <vector>

namespace eas {

struct MetricValue {
  std::string name;
  double value;
};

void SmuggleColumn(std::vector<MetricValue>& out) {
  out.push_back(MetricValue{"rogue_column", 1.0});  // expect: metric-schema
}

}  // namespace eas
