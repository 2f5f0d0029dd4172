"""Edge-assisted model-evolution scheduling: drift detection, frame sampling,
task profiling, urgency-grouped knapsack scheduling, and a deterministic
discrete-event simulator."""

__version__ = "0.1.0"
