"""Performance benchmark of fevec, driven from outside through its public functions."""
