"""Spec↔implementation mapping for the toy cache server."""

from __future__ import annotations

from ...core.mapping import SpecMapping
from ...specs.example import build_example_spec

__all__ = ["build_toycache_mapping"]


def build_toycache_mapping(data=(1, 2)) -> SpecMapping:
    """The mapping between the Figure 1 spec and :class:`CacheServer`.

    ``msg``/``cache`` map to the server's traced fields; ``stage`` is
    auxiliary (never mapped); ``Request`` is a user request driven by a
    client script; ``Respond`` is a spontaneous single-node action.
    """
    spec = build_example_spec(data=data)
    mapping = SpecMapping(spec)
    mapping.map_variable("msg")
    mapping.map_variable("cache")

    def run_request(cluster, params, occurrence):
        cluster.node("server").request(params["data"])

    mapping.map_user_request("Request", run_request)
    mapping.map_action("Respond")
    mapping.bind_default_events()
    return mapping
