#include "net/link_directory.h"

#include <stdexcept>

#include "net/switch.h"

namespace incast::net {

namespace {

constexpr std::string_view kArrow = "->";

std::string link_name(const Node& from, const Node& to) {
  return from.name() + std::string{kArrow} + to.name();
}

}  // namespace

const LinkDirectory::Link* LinkDirectory::find(std::string_view name) const noexcept {
  for (const Link& l : links_) {
    const std::string& from = l.from->name();
    const std::string& to = l.to->name();
    if (name.size() == from.size() + kArrow.size() + to.size() && name.starts_with(from) &&
        name.substr(from.size()).starts_with(kArrow) && name.ends_with(to)) {
      return &l;
    }
  }
  return nullptr;
}

Port* LinkDirectory::find_link(const std::string& name) const {
  const Link* l = find(name);
  return l == nullptr ? nullptr : &l->from->port(l->out_port);
}

Port& LinkDirectory::link(const std::string& name) const {
  if (Port* port = find_link(name)) return *port;
  std::string msg = "no link named '" + name + "'; registered links:";
  for (const std::string& n : link_names()) msg += " " + n;
  throw std::out_of_range(msg);
}

std::vector<std::string> LinkDirectory::link_names() const {
  std::vector<std::string> names;
  names.reserve(links_.size());
  for (const Link& l : links_) names.push_back(link_name(*l.from, *l.to));
  return names;
}

std::int64_t LinkDirectory::residual_buffered_bytes() const {
  std::int64_t total = 0;
  for (const Link& l : links_) {
    const Port& port = l.from->port(l.out_port);
    total += port.queue().bytes() + port.wire_bytes();
  }
  return total;
}

std::int64_t LinkDirectory::int_hop_overflows() const {
  std::int64_t total = 0;
  for (const Link& l : links_) total += l.from->port(l.out_port).int_hop_overflows();
  return total;
}

void LinkDirectory::register_duplex(Node& a, std::size_t ap, Node& b, std::size_t bp) {
  links_.push_back(Link{&a, ap, &b, bp});
  links_.push_back(Link{&b, bp, &a, ap});
}

const LosslessInputQueue* LinkDirectory::find_viq(const std::string& viq_name) const {
  const std::size_t sep = viq_name.rfind(":viq");
  if (sep == std::string::npos) return nullptr;
  const std::string_view index_text = std::string_view{viq_name}.substr(sep + 4);
  if (index_text.empty()) return nullptr;
  std::size_t index = 0;
  for (const char c : index_text) {
    if (c < '0' || c > '9') return nullptr;
    index = index * 10 + static_cast<std::size_t>(c - '0');
  }
  const Link* l = find(std::string_view{viq_name}.substr(0, sep));
  if (l == nullptr || l->in_port != index) return nullptr;
  const auto* sw = dynamic_cast<const Switch*>(l->to);
  return sw != nullptr ? sw->viq(index) : nullptr;
}

std::vector<std::string> LinkDirectory::viq_names() const {
  std::vector<std::string> out;
  for (const Link& l : links_) {
    const auto* sw = dynamic_cast<const Switch*>(l.to);
    if (sw == nullptr || sw->viq(l.in_port) == nullptr) continue;
    out.push_back(link_name(*l.from, *l.to) + ":viq" + std::to_string(l.in_port));
  }
  return out;
}

}  // namespace incast::net
