"""Reward models the samplers are exercised against."""
