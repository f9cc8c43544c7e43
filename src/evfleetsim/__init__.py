"""evfleetsim: deterministic discrete-event simulation of electric vehicle
fleets, their energy flows, charging infrastructure, and trip demand."""

__version__ = "0.1.0"
