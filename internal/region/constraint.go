package region

// Constraint captures the compliance rules of §8: a workflow- or
// function-level allow/deny list over regions, providers, and countries.
// Function-level constraints supersede workflow-level ones; an empty allow
// set means "all regions eligible".
type Constraint struct {
	AllowedRegions    []ID
	DisallowedRegions []ID
	AllowedProviders  []string
	AllowedCountries  []string
}

// Permits reports whether the constraint allows deployment to r.
func (c Constraint) Permits(r *Region) bool {
	for _, d := range c.DisallowedRegions {
		if d == r.ID {
			return false
		}
	}
	if len(c.AllowedRegions) > 0 {
		found := false
		for _, a := range c.AllowedRegions {
			if a == r.ID {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if len(c.AllowedProviders) > 0 {
		found := false
		for _, p := range c.AllowedProviders {
			if p == r.Provider {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if len(c.AllowedCountries) > 0 {
		found := false
		for _, cc := range c.AllowedCountries {
			if cc == r.Country {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Merge layers a function-level constraint over a workflow-level one.
// Per §8, the function-level configuration supersedes the workflow-level
// one wherever it says anything at all; deny lists accumulate.
func Merge(workflow, function Constraint) Constraint {
	out := workflow
	if len(function.AllowedRegions) > 0 {
		out.AllowedRegions = function.AllowedRegions
	}
	if len(function.AllowedProviders) > 0 {
		out.AllowedProviders = function.AllowedProviders
	}
	if len(function.AllowedCountries) > 0 {
		out.AllowedCountries = function.AllowedCountries
	}
	out.DisallowedRegions = append(append([]ID(nil), workflow.DisallowedRegions...), function.DisallowedRegions...)
	return out
}
