#include "support/telemetry.h"

#include <cstdio>

#include "obs/json.h"

namespace aviv {

TelemetryNode& TelemetryNode::child(const std::string& name) {
  for (const auto& c : children_)
    if (c->name() == name) return *c;
  children_.push_back(std::make_unique<TelemetryNode>(name));
  return *children_.back();
}

const TelemetryNode* TelemetryNode::findChild(const std::string& name) const {
  for (const auto& c : children_)
    if (c->name() == name) return c.get();
  return nullptr;
}

void TelemetryNode::addCounter(const std::string& key, int64_t delta) {
  counters_[key] += delta;
}

void TelemetryNode::setCounter(const std::string& key, int64_t value) {
  counters_[key] = value;
}

int64_t TelemetryNode::counter(const std::string& key) const {
  const auto it = counters_.find(key);
  return it == counters_.end() ? 0 : it->second;
}

bool TelemetryNode::hasCounter(const std::string& key) const {
  return counters_.count(key) > 0;
}

void TelemetryNode::merge(const TelemetryNode& other) {
  seconds_ += other.seconds_;
  for (const auto& [key, value] : other.counters_) counters_[key] += value;
  for (const auto& c : other.children_) child(c->name()).merge(*c);
}

bool TelemetryNode::sameShapeAs(const TelemetryNode& other) const {
  if (name_ != other.name_ || counters_ != other.counters_ ||
      children_.size() != other.children_.size())
    return false;
  for (size_t i = 0; i < children_.size(); ++i)
    if (!children_[i]->sameShapeAs(*other.children_[i])) return false;
  return true;
}

namespace {

// %.17g round-trips every double exactly.
void appendDouble(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

void writeNode(std::string& out, const TelemetryNode& node, int indent) {
  const std::string pad(static_cast<size_t>(indent), ' ');
  const std::string pad2(static_cast<size_t>(indent) + 2, ' ');
  out += "{\n" + pad2 + "\"name\": ";
  appendJsonString(out, node.name());
  out += ",\n" + pad2 + "\"seconds\": ";
  appendDouble(out, node.seconds());
  out += ",\n" + pad2 + "\"counters\": {";
  bool first = true;
  for (const auto& [key, value] : node.counters()) {
    if (!first) out += ", ";
    first = false;
    appendJsonString(out, key);
    out += ": " + std::to_string(value);
  }
  out += "},\n" + pad2 + "\"children\": [";
  first = true;
  for (const auto& c : node.children()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad2 + "  ";
    writeNode(out, *c, indent + 4);
  }
  if (!node.children().empty()) out += "\n" + pad2;
  out += "]\n" + pad + "}";
}

}  // namespace

std::string TelemetryNode::toJson(int indent) const {
  std::string out;
  writeNode(out, *this, indent);
  out += "\n";
  return out;
}

}  // namespace aviv
