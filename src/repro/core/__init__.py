"""Core model: messages, histories, protocols, the runner, validation."""
