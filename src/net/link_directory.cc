#include "net/link_directory.h"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "net/switch.h"

namespace incast::net {

Port* LinkDirectory::find_link(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

Port& LinkDirectory::link(const std::string& name) const {
  if (Port* port = find_link(name)) return *port;
  std::string msg = "no link named '" + name + "'; registered links:";
  for (const std::string& n : names_) msg += " " + n;
  throw std::out_of_range(msg);
}

std::int64_t LinkDirectory::residual_buffered_bytes() const {
  std::int64_t total = 0;
  for (const auto& [name, port] : by_name_) {
    total += port->queue().bytes() + port->wire_bytes();
  }
  return total;
}

std::int64_t LinkDirectory::int_hop_overflows() const {
  std::int64_t total = 0;
  for (const auto& [name, port] : by_name_) total += port->int_hop_overflows();
  return total;
}

void LinkDirectory::register_link(std::string name, Port& port) {
  const auto [it, inserted] = by_name_.emplace(std::move(name), &port);
  assert(inserted && "duplicate link name");
  (void)inserted;
  names_.push_back(it->first);
}

void LinkDirectory::register_duplex(Node& a, std::size_t ap, Node& b, std::size_t bp) {
  register_link(a.name() + "->" + b.name(), a.port(ap));
  register_link(b.name() + "->" + a.name(), b.port(bp));
  ingress_by_link_[a.name() + "->" + b.name()] = Ingress{&b, bp};
  ingress_by_link_[b.name() + "->" + a.name()] = Ingress{&a, ap};
}

const LosslessInputQueue* LinkDirectory::find_viq(const std::string& viq_name) const {
  const std::size_t sep = viq_name.rfind(":viq");
  if (sep == std::string::npos) return nullptr;
  const std::string link = viq_name.substr(0, sep);
  const std::string index_text = viq_name.substr(sep + 4);
  if (index_text.empty()) return nullptr;
  std::size_t index = 0;
  for (const char c : index_text) {
    if (c < '0' || c > '9') return nullptr;
    index = index * 10 + static_cast<std::size_t>(c - '0');
  }
  const auto it = ingress_by_link_.find(link);
  if (it == ingress_by_link_.end() || it->second.in_port != index) return nullptr;
  const auto* sw = dynamic_cast<const Switch*>(it->second.node);
  return sw != nullptr ? sw->viq(index) : nullptr;
}

std::vector<std::string> LinkDirectory::viq_names() const {
  std::vector<std::string> out;
  for (const std::string& name : names_) {
    const auto it = ingress_by_link_.find(name);
    if (it == ingress_by_link_.end()) continue;
    const auto* sw = dynamic_cast<const Switch*>(it->second.node);
    if (sw == nullptr || sw->viq(it->second.in_port) == nullptr) continue;
    out.push_back(name + ":viq" + std::to_string(it->second.in_port));
  }
  return out;
}

}  // namespace incast::net
